"""Command line surface: exit codes, JSON round-trips, corpus scans."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parryscope import analysis, numeration
from parryscope.cli import CorpusSpec, _build_parser, _emit, _match, main
from parryscope.errors import ParryscopeError, UsageError, VerificationFailed
from parryscope.numeration import validate_renyi
from parryscope.words import fmt, satisfies_power_condition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, body = run_json(capsys, "validate", "2121")
    assert code == 0
    assert body == {"valid": True, "d": "2121", "m": 4}


def test_validate_parry_violation(capsys):
    code, body = run_json(capsys, "validate", "12")
    assert code == 2
    assert body["valid"] is False
    assert body["error"]["suffix_index"] == 2


def test_parse_error_exit_code(capsys):
    code = main(["validate", "abc"])
    err = capsys.readouterr().err
    assert code == 1 and "abc" in err


def test_usage_error_exit_code(capsys):
    code = main(["specials", "11", "left"])  # missing -n
    assert code == 1


def test_classify_with_oracle(capsys):
    code, body = run_json(capsys, "classify", "21211", "--oracle-n", "40")
    assert code == 0
    assert body["verdict"] == {"affine": True, "slope": 4, "intercept": 1}
    assert body["oracle"]["agrees"] is True
    assert body["complexity"] == [4 * n + 1 for n in range(1, 41)]
    assert body["deltas"] == [4] * 39
    assert body["witness"] is None
    assert body["specials"]["left_special_counts"] == [1] * 39


def test_classify_report_includes_witness(capsys):
    code, body = run_json(capsys, "classify", "2121", "--oracle-n", "20")
    assert code == 0
    assert body["witness"]["bundle"]["z"] == "121"
    assert body["witness"]["verification"]["conditions"]["i"] is True
    assert body["specials"] is not None


def test_classify_not_affine(capsys):
    code, body = run_json(capsys, "classify", "2121")
    assert code == 0
    assert body["verdict"] == {"affine": False, "reason": "fractional_power", "p": "2"}


def test_witness_full_pipeline(capsys):
    code, body = run_json(capsys, "witness", "2121")
    assert code == 0
    assert body["bundle"]["z"] == "121"
    assert body["bundle"]["x1"] == "2000" and body["bundle"]["x2"] == "21100"
    assert body["verification"]["conditions"] == {
        "i": True, "ii": True, "iii": True, "iv": True,
    }


WIDE_WITNESS_BASES = ("12,3,12,1", "300,2,300,1", "2,1,1,1,1,1,1,1,1,1,2,1",
                      "1000000000,1,1000000000,1")


def test_witness_report_words_are_the_library_words(capsys):
    # the report writes w0 from its bytes and names the bundle's fields: each
    # word reads as fmt of the library's own value, with letters of 10 or
    # more, of 256 or more, m = 12, and a span past the text cap (w0 null)
    bases = CorpusSpec.parse("m=2..7,digit<=3,tm=1,nonpower").members()[0]
    assert len(bases) == 279
    for d in [*bases, *map(validate_renyi, WIDE_WITNESS_BASES)]:
        code, body = run_json(capsys, "witness", fmt(d.digits))
        assert code == 0
        b = analysis.construct_witness(d)
        v = analysis.verify_witness(d, b)
        fields = dict(vars(b))
        fields["d"] = d.digits
        want = {k: fmt(x) if isinstance(x, tuple) else x for k, x in fields.items()}
        assert list(body["bundle"].items()) == list(want.items()), fmt(d.digits)
        report = body["verification"]
        assert (v.w0 is None) == (v.span >= numeration.TEXT_CAP)
        assert report["w0"] == (None if v.w0 is None else fmt(v.w0))
        assert (report["x1_end"], report["x2_end"]) == (fmt(v.x1_end), fmt(v.x2_end))
        assert run_json(capsys, "classify", fmt(d.digits))[1]["witness"] == body


def test_witness_not_applicable(capsys):
    code, body = run_json(capsys, "witness", "22")
    assert code == 3
    assert body["error"]["reason"] == "tm_not_one"
    assert body["classification"]["verdict"]["affine"] is False
    code, body = run_json(capsys, "witness", "11")
    assert code == 3
    assert body["error"]["reason"] == "affine"


@pytest.mark.parametrize("base, code", [("11", 3), ("2121", 0)])
def test_witness_classifies_the_base_once(monkeypatch, capsys, base, code):
    # the bundle and, when it does not apply, the error body share one verdict
    calls = []
    real = analysis.classify_affine
    monkeypatch.setattr(analysis, "classify_affine",
                        lambda d, oracle_n=None: calls.append(d) or real(d, oracle_n))
    assert run(capsys, "witness", base)[0] == code
    assert len(calls) == 1


def test_generate(capsys):
    code, body = run_json(capsys, "generate", "11", "-L", "5")
    assert code == 0
    assert body["prefix"] == "01001"
    assert body["substitution"]["images"] == {"0": "01", "1": "0"}
    assert body["substitution"]["primitive"] is True


def test_betaint_commands(capsys):
    code, body = run_json(capsys, "betaint", "11", "succ", "101")
    assert code == 0 and body["next"] == "1000" and body["gap_letter"] == 1
    code, body = run_json(capsys, "betaint", "11", "pred", "10")
    assert code == 0 and body["gap_letter"] == 1
    code, body = run_json(capsys, "betaint", "11", "coding", "0", "5")
    assert code == 0 and body["coding"] == "01001"
    code, body = run_json(capsys, "betaint", "11", "expand", "2")
    assert code == 0 and body["expansion"] == "10.01" and body["exact"] is True


def test_betaint_coding_reads_letters_above_255(capsys):
    # on 2,1^300 the gap after 2,1^255,0 is the letter 257; blocks are bytes,
    # single letters are not
    base = ",".join(["2"] + ["1"] * 300)
    start = ",".join(["2"] + ["1"] * 255 + ["0"])
    code, body = run_json(capsys, "betaint", base, "coding", start, "3")
    assert code == 0 and body["coding"] == "0,257,0"


def test_betaint_succ_reads_the_point_once(capsys, monkeypatch):
    # the gap letter and the successor come from one walk of one gap
    read = []
    states = numeration._states
    monkeypatch.setattr(numeration, "_states", lambda d, s: read.append(s) or states(d, s))
    code, body = run_json(capsys, "betaint", "11", "succ", "101")
    assert code == 0 and body["next"] == "1000" and body["gap_letter"] == 1
    assert read == [(1, 0, 1)]


@pytest.mark.parametrize("argv", [("succ", "1", "2", "3"), ("pred",), ("pred", "10", "5"),
                                  ("coding",), ("coding", "0"), ("coding", "0", "20", "7"),
                                  ("expand",), ("expand", "5", "6")])
def test_betaint_operand_count_is_checked(capsys, argv):
    assert main(["betaint", "11", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"betaint D {argv[0]}" in captured.err


def test_betaint_expand_budget_flag(capsys):
    code, body = run_json(capsys, "betaint", "2121", "expand", "29")
    assert code == 0
    assert body["exact"] is False and "." in body["expansion"]


def test_betaint_inadmissible_input(capsys):
    code, body = run_json(capsys, "betaint", "11", "succ", "11")
    assert code == 2
    assert body["error"]["type"] == "InadmissibleInput"
    code, body = run_json(capsys, "betaint", "11", "coding", "11", "0")
    assert code == 2
    assert body["error"]["type"] == "InadmissibleInput"
    code, body = run_json(capsys, "betaint", "11", "pred", "11")
    assert code == 2
    assert body["error"]["type"] == "InadmissibleInput"
    # a digit above the alphabet is reported before the inadmissible pair
    code, body = run_json(capsys, "betaint", "11", "pred", "112")
    assert code == 2
    assert body["error"]["type"] == "DigitRangeError"


def test_specials_commands(capsys):
    code, body = run_json(capsys, "specials", "11", "left", "-n", "2")
    assert code == 0
    assert body["left_special"] == [{"word": "01", "lext": [0, 1]}]
    assert body["delta"] == 1
    code, body = run_json(capsys, "specials", "2121", "maximal", "--length-bound", "20")
    assert code == 0
    assert body["maximal_left_special"] == ["0010010200100100"]
    code, body = run_json(capsys, "specials", "2121", "tridents", "--length-bound", "10")
    assert code == 0
    assert body["tridents"]


def test_specials_length_bound_zero_is_kept(capsys):
    # an explicit 0 is not replaced by the default bound 2 (t_1 + t_m) = 6
    code, body = run_json(capsys, "specials", "2121", "tridents", "--length-bound", "0")
    assert code == 0
    assert (body["length_bound"], body["tridents"]) == (0, [])
    assert main(["specials", "2121", "maximal", "--length-bound", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "length bound must be at least 1" in captured.err


def test_corpus_spec_parsing():
    spec = CorpusSpec.parse("m=2..4,digit<=2,tm=1")
    assert (spec.m_min, spec.m_max, spec.digit_bound, spec.tm) == (2, 4, 2, "=1")
    spec = CorpusSpec.parse("m=3,digit<=3,tm>=2,nonpower")
    assert (spec.m_min, spec.m_max, spec.power) == (3, 3, "nonpower")
    with pytest.raises(UsageError):
        CorpusSpec.parse("bogus=1")


@pytest.mark.parametrize("text", ["tm=1,tm>=2", "power,nonpower", "m=2..2,m=3..3",
                                  "digit<=2,digit<=3"])
def test_corpus_sets_each_field_once(capsys, text):
    with pytest.raises(UsageError):
        CorpusSpec.parse(text)
    assert main(["scan", "--corpus", text]) == 1
    assert "twice" in capsys.readouterr().err


@pytest.mark.parametrize("tok", ["m=2..3..4", "m=..3", "m=2..", "digit<=x", "digit<=-1",
                                 "digit<=+1", "digit<= 2", "digit<=1_0", "m=2_000", "m=\u0663"])
def test_malformed_corpus_token_is_named_in_a_usage_error(capsys, tok):
    # bounds are non-negative ASCII decimals; anything else is an unknown
    # token (m=2 keeps a wrongly accepted digit bound to a small scan)
    corpus = tok if tok.startswith("m=") else f"m=2,{tok}"
    assert main(["scan", "--corpus", corpus]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown corpus token: {tok!r}" in captured.err


def _filtered_product(text):
    """Members and skipped count of a corpus by the definition: every digit
    word of each length, filtered."""
    spec = CorpusSpec.parse(text)
    out, skipped = [], 0
    for m in range(spec.m_min, spec.m_max + 1):
        for t in itertools.product(range(spec.digit_bound + 1), repeat=m):
            if t[0] < 1 or t[-1] < 1 or (spec.tm == "=1" and t[-1] != 1) or (
                    spec.tm == ">=2" and t[-1] < 2):
                continue
            try:
                validate_renyi(t)
            except ParryscopeError:
                skipped += 1
                continue
            if spec.power == "any" or satisfies_power_condition(t[:-1]) == (
                    spec.power == "power"):
                out.append(t)
    return out, skipped


@pytest.mark.parametrize("text", [
    "m=2..5,digit<=3", "m=2..4,digit<=4,tm=1,nonpower", "m=2..5,digit<=3,tm>=2,power",
    "m=2..6,digit<=2,power", "m=2,digit<=0", "m=3,digit<=1,tm>=2", "m=2..3,digit<=9",
    "m=2..4,digit<=1,tm=1",
])
def test_corpus_members_are_the_filtered_product_in_order(text):
    members, skipped = CorpusSpec.parse(text).members()
    assert ([d.digits for d in members], skipped) == _filtered_product(text)


def test_corpus_members_are_valid_and_filtered():
    members, skipped = CorpusSpec.parse("m=2..3,digit<=2,tm=1").members()
    assert members and skipped >= 0
    assert all(d.digits[-1] == 1 for d in members)


@pytest.mark.parametrize("argv, message", [
    (("classify", "2121", "--oracle-n", "0"), "n_max must be at least 1"),
    (("specials", "2121", "left", "-n", "0"), "length must be at least 1"),
    (("specials", "2121", "tridents", "--length-bound", "-1"),
     "length bound must be non-negative"),
    (("betaint", "11", "coding", "0", "-1"), "count must be non-negative"),
    (("generate", "11", "-L", "-1"), "prefix length must be non-negative"),
    (("betaint", "11", "expand", "-1"), "only non-negative integers are expanded"),
    (("scan", "--corpus", "m=2,digit<=1", "--oracle-n", "0"), "n_max must be at least 1"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_out_of_range_operand_exits_1(capsys, argv, message):
    code = main(list(argv))
    assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("base", ["\u0662\u0661", "\uff12\uff11", "2_1,1", "12,", "\u00b21"],
                         ids=["arabic-indic", "fullwidth", "underscore", "empty-part",
                              "superscript"])
def test_base_that_is_not_ascii_digits_exits_1(capsys, base):
    # each comma-separated part, stripped of spaces, is ASCII 0-9
    code = main(["validate", base])
    assert (code, *capsys.readouterr()) == (1, "", f"error: not a digit word: {base!r}\n")


def test_empty_corpus_tokens_are_skipped(capsys):
    plain = run(capsys, "scan", "--corpus", "m=2,digit<=1")
    assert plain[0] == 0
    assert run(capsys, "scan", "--corpus", "m=2,,digit<=1,") == plain


def test_scan_tsv(capsys):
    code, out = run(capsys, "scan", "--corpus", "m=2,digit<=2", "--oracle-n", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d\tm\tverdict")
    assert len(lines) == 4  # header + 11, 21, 22
    assert all("False" not in line.split("\t")[6] for line in lines[1:])


def test_scan_tm_filter_all_not_affine(capsys):
    code, body = run_json(
        capsys, "scan", "--corpus", "m=2..3,digit<=3,tm>=2", "--format", "json"
    )
    assert code == 0
    assert body["rows"] and all(r["verdict"] == "not_affine" for r in body["rows"])


# the README scan skips tm>=2 bases; every factor library of a scan is
# certified when it is built, so each run must exit 0 and agree.  The last
# two ranges end before some first excesses (3231 at 45; 22, 202, 212 and
# 222 at 3), which agree only as predicted
@pytest.mark.parametrize("corpus, n", [("m=2..4,digit<=2", 30), ("m=2..3,digit<=3", 30),
                                       ("m=2..4,digit<=3", 30), ("m=2..3,digit<=2", 1)])
def test_scans_with_tm_at_least_2_agree_with_enumeration(capsys, corpus, n):
    code, body = run_json(capsys, "scan", "--corpus", corpus, "--oracle-n", str(n),
                          "--format", "json")
    assert (code, body["agreement"]) == (0, True)


def test_scan_empty_corpus(capsys):
    code, out = run(capsys, "scan", "--corpus", "m=2,digit<=0")
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_json_outputs_reparse(capsys):
    for argv in (
        ["validate", "2121"],
        ["classify", "2121", "--oracle-n", "10"],
        ["witness", "2121"],
        ["generate", "2121", "-L", "20"],
        ["specials", "2121", "left", "-n", "3"],
        ["scan", "--corpus", "m=2,digit<=2", "--format", "json"],
    ):
        code, body = run_json(capsys, *argv)
        assert code == 0 and isinstance(body, dict)


# JSON leaves that outputs hold, and floats, which take the writer's fallback
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers()
    | st.integers(-(10 ** 4000) + 1, 10 ** 4000 - 1)
    | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001d11e') | st.characters())
    | st.floats()
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_emitted_text_is_that_of_the_stdlib_encoder(v):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(v)
    assert out.getvalue() == json.dumps(v, indent=2) + "\n"


@pytest.mark.parametrize("v", [{1: 2}, {"a": [{"b": 1}, {None: 2}]}, {("k",): []}])
def test_a_key_that_is_not_a_str_is_refused(v):
    with pytest.raises(TypeError), contextlib.redirect_stdout(io.StringIO()):
        _emit(v)


def test_identical_invocations_are_byte_identical(capsys):
    _, first = run(capsys, "classify", "2121", "--oracle-n", "15")
    _, second = run(capsys, "classify", "2121", "--oracle-n", "15")
    assert first == second


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert _build_parser() is _build_parser()
    assert main(["betaint", "11", "coding"]) == 1
    assert main(["specials", "11", "sideways"]) == 1
    capsys.readouterr()
    first = run(capsys, "betaint", "2121", "expand", "7")
    assert first[0] == 0
    assert run(capsys, "betaint", "2121", "expand", "7") == first


def _outcome(capsys, parse, argv):
    """What one parse gives: its namespace less the command key, the message
    of the UsageError it raises, or the code and stdout of its SystemExit."""
    try:
        ns = vars(parse(argv))
    except UsageError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    ns.pop("command", None)
    return "parsed", ns


@pytest.mark.parametrize("argv", [
    ["validate", "2121"], ["classify", "2121", "--oracle-n", "5"], ["witness", "2121"],
    ["generate", "2121", "-L", "5"], ["betaint", "2121", "expand", "7"],
    ["specials", "2121", "left", "-n", "3", "--length-bound", "9"],
    ["scan", "--corpus", "m=2..3", "--oracle-n", "5", "--format", "json"],
    ["classify", "11", "--oracle-n=5"], ["classify", "11", "--oracle", "5"],
    ["generate", "11", "-L5"], ["specials", "11", "left", "-n5"],
    ["validate", "--", "2121"], ["betaint", "11", "coding", "0", "-1"],
    ["classify", "11", "--oracle-n", "x"], ["specials", "11", "middle"], ["validate"],
    ["validate", "11", "--bogus"], ["validate", "-h"], ["betaint", "2121", "-h"],
    ["scan", "-h"], ["classify", "--oracle-n", "5", "11"],
    ["classify", "11", "--oracle-n", "3", "--oracle-n", "5"],
    ["scan", "--corpus", "m=2..3", "--format", "xml"], ["classify", "11", "--oracle-n", "-5"],
    ["betaint", "11", "succ"], ["generate", "11"],
], ids=" ".join)
def test_a_command_parser_reads_what_the_top_level_parser_hands_it(capsys, argv):
    # main sends a command word straight to its own parser: the namespace,
    # usage error or help must be the one the top-level parser gives, and the
    # matcher, which sees every action argparse holds, gives that namespace
    # or nothing
    parser = _build_parser()
    command = parser.commands[argv[0]]
    direct = _outcome(capsys, command.parse_args, argv[1:])
    assert direct == _outcome(capsys, parser.parse_args, argv)
    matched = _match(command, argv[1:])
    assert matched is None or direct == ("parsed", vars(matched))
    if argv[-1] == "-h":
        assert direct[:2] == ("exit", 0) and direct[2].startswith(f"usage: parryscope {argv[0]}")


def _argparse_reads(command, rest):
    """The namespace argparse gives for ``rest``, or None for a usage error
    or help."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return command.parse_args(rest)
    except (UsageError, SystemExit):
        return None


def _is_plain(command, rest):
    """Whether every token of ``rest`` is a positional or an exact option
    string of ``command`` other than -h followed by its value, none
    starting with "-": the lines the matcher is to read."""
    tokens = iter(rest)
    for token in tokens:
        if token.startswith("-") and (
                token in ("-h", "--help") or token not in command._option_string_actions
                or next(tokens, "-").startswith("-")):
            return False
    return True


_COMMANDS = _build_parser().commands
# the command words, each option string and choice, ints, a stray word and
# the shapes argparse alone reads
_WORDS = st.one_of(st.integers(-5, 30).map(str), st.sampled_from(sorted({
    *_COMMANDS, "x", "--", "--oracle-n=3", "2121", "m=2..3",
    *(s for p in _COMMANDS.values() for a in p._actions
      for s in [*a.option_strings, *(a.choices or ())])})))


@st.composite
def _command_lines(draw):
    """A command word and the rest of its line: a word for each positional
    of the command (none to two for a "*" one), in order, with the option
    strings of its options that take a value, each followed by a word, and
    maybe a stray word, put in anywhere.  The words of an argument with
    choices are drawn as often from those choices as from all words, so
    that the plain lines the matcher reads come often."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    line, inserts = [], draw(st.lists(_WORDS.map(lambda w: [w]), max_size=1))
    for action in _COMMANDS[name]._actions:
        word = st.one_of(st.sampled_from(action.choices), _WORDS) if action.choices else _WORDS
        if not action.option_strings:
            line += [[w] for w in draw(st.lists(word, min_size=action.nargs != "*",
                                                max_size=1 if action.nargs is None else 2))]
        elif action.nargs is None:
            option = st.tuples(st.sampled_from(action.option_strings), word).map(list)
            inserts += draw(st.lists(option, max_size=2))
    for piece in inserts:
        line.insert(draw(st.integers(0, len(line))), piece)
    return name, [w for piece in line for w in piece]


@settings(max_examples=500, deadline=None)
@given(_command_lines())
def test_the_matcher_reads_a_plain_line_as_argparse_does(line):
    # pins the matcher to the argparse of the running Python: whatever it
    # reads, argparse reads alike, and it reads every plain line argparse accepts
    name, rest = line
    command = _COMMANDS[name]
    matched = _match(command, rest)
    expected = _argparse_reads(command, rest)
    if matched is not None:
        assert matched == expected
    elif expected is not None:
        assert not _is_plain(command, rest)


def test_oversized_oracle_range_exits_4_fast(capsys):
    start = time.perf_counter()
    code, body = run_json(capsys, "classify", "2121", "--oracle-n", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and body["error"]["type"] == "BudgetExceeded"


# requests above a cap (letters of text, stored factor bytes, candidates of a
# corpus) fail before any work; the two factor requests fit the text cap
@pytest.mark.parametrize("argv", [
    ("betaint", "2121", "coding", "0", "10000000000"),
    ("generate", "2121", "-L", "10000000000"),
    ("specials", "11", "left", "-n", "100000"),
    ("classify", "11", "--oracle-n", "121394"),
    ("scan", "--corpus", "m=2..40,digit<=9"),
], ids=["coding", "generate", "specials-bytes", "classify-bytes", "corpus"])
def test_oversized_text_request_exits_4_fast(capsys, argv):
    start = time.perf_counter()
    code, body = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and body["error"]["type"] == "BudgetExceeded"


def test_integer_base_is_refused(capsys):
    # the analysis needs two letters: a single-digit base is a validation
    # failure, and a corpus reaching m = 1 a usage error
    for argv in (("classify", "2"), ("witness", "2")):
        code, body = run_json(capsys, *argv)
        assert code == 2 and body["error"]["type"] == "LetterRangeError"
    for corpus in ("m=1..2", "m=1..2,digit<=2"):
        assert main(["scan", "--corpus", corpus, "--oracle-n", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 2" in captured.err


@pytest.mark.parametrize("argv", [("generate", "-L", "10"), ("classify", "--oracle-n", "5"),
                                  ("specials", "left", "-n", "2")])
def test_alphabet_above_255_letters_is_refused_fast(capsys, argv):
    # 2 1^255 is a valid base whose substitution would need 256 letters
    start = time.perf_counter()
    code, body = run_json(capsys, argv[0], "2" + "1" * 255, *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and body["error"]["type"] == "LetterRangeError"


def test_scan_disagreement_exits_4(capsys, monkeypatch):
    # an oracle that disagrees on one base fails the scan and marks its row
    real = analysis.classify_affine

    def disagree_on_21(d, **kwargs):
        cls = real(d, **kwargs)
        if d.digits == (2, 1):
            cls.oracle.agrees = False
        return cls

    monkeypatch.setattr(analysis, "classify_affine", disagree_on_21)
    code, body = run_json(capsys, "scan", "--corpus", "m=2,digit<=2", "--oracle-n", "10",
                          "--format", "json")
    assert code == 4 and body["agreement"] is False
    assert [(r["d"], r["agrees"]) for r in body["rows"]] == [
        ("11", True), ("21", False), ("22", True)]


def test_report_keys_state_each_fact_once(capsys):
    # no key is a constant or a copy of another key
    _, body = run_json(capsys, "classify", "2121", "--oracle-n", "20")
    assert list(body) == ["d", "m", "verdict", "evidence", "oracle", "complexity",
                          "deltas", "witness", "specials"]
    assert list(body["oracle"]) == ["n_max", "prefix_length_used", "affine", "agrees",
                                    "first_excess_n"]
    _, body = run_json(capsys, "witness", "2121")
    assert list(body["verification"]) == ["span", "w0", "w0_length", "x1_end", "x2_end",
                                          "pred_letters", "succ_letter_z", "conditions"]
    _, body = run_json(capsys, "specials", "2121", "left", "-n", "3")
    assert list(body) == ["d", "n", "left_special", "right_special", "bispecial", "delta",
                          "prefix_length_used"]
    columns = ["d", "m", "verdict", "reason", "slope", "oracle_affine", "agrees",
               "prefix_length"]
    _, out = run(capsys, "scan", "--corpus", "m=2,digit<=2", "--oracle-n", "15")
    assert out.splitlines()[0].split("\t") == columns
    _, body = run_json(capsys, "scan", "--corpus", "m=2,digit<=2", "--oracle-n", "15",
                       "--format", "json")
    assert all(list(row) == columns for row in body["rows"])


def test_scan_keeps_one_factor_library(capsys):
    code, _ = run(capsys, "scan", "--corpus", "m=2..3,digit<=2", "--oracle-n", "8")
    assert code == 0
    assert len(analysis._LIB_CACHE) == 1


def python_env():
    """The environment of a fresh interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_python(flags, *args):
    """A fresh interpreter started with ``flags`` and ``args``."""
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True, text=True, env=python_env(), timeout=120,
    )


def run_process(flags, *argv):
    """The CLI in a fresh interpreter started with ``flags``."""
    return run_python(flags, "-m", "parryscope.cli", *argv)


def test_failed_invariant_names_its_condition(capsys, monkeypatch):
    def failing(d, bundle):
        raise VerificationFailed("ii", "x1 and x2 have equal predecessor gaps")

    monkeypatch.setattr(analysis, "verify_witness", failing)
    code, body = run_json(capsys, "witness", "2121")
    assert code == 4
    assert body["error"] == {"type": "VerificationFailed",
                             "message": "x1 and x2 have equal predecessor gaps",
                             "condition": "ii"}


def test_closed_pipe_ends_the_command_quietly():
    # the reader stops after 60 bytes of a 10^6-letter prefix; the status
    # is the one a shell reports for a writer killed by SIGPIPE
    with subprocess.Popen(
        [sys.executable, "-m", "parryscope.cli", "generate", "11", "-L", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(),
    ) as proc:
        assert len(proc.stdout.read(60)) == 60
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


# verifies the 2121 witness with the field argv[1] replaced by the value of
# the expression argv[2] over the bundle b; prints the failed condition and
# exits with the error's CLI exit code
TAMPERED_WITNESS = """
import sys
from parryscope import analysis, numeration
from parryscope.errors import VerificationFailed
d = numeration.validate_renyi("2121")
b = analysis.construct_witness(d)
tampered = analysis.WitnessBundle(**{**vars(b), sys.argv[1]: eval(sys.argv[2])})
try:
    analysis.verify_witness(d, tampered)
except VerificationFailed as exc:
    print(exc.condition)
    sys.exit(exc.exit_code)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_failed_invariant_exits_4_under_any_optimization(flags):
    # x2 = x1 gives equal predecessor gaps at x1 and x2, and z = 22 is not
    # admissible; the invariant checks must hold with assertions stripped as well
    for field, value, condition in (("x2", "b.x1", "ii"), ("z", "(2, 2)", "admissible")):
        proc = run_python(flags, "-c", TAMPERED_WITNESS, field, value)
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout.split() == [condition]


@pytest.mark.parametrize("argv", [
    # the factor engine, the special counts and the witness without asserts
    *(pytest.param(("classify", base, "--oracle-n", "30"), id=base)
      for base in ("2121", "301002", "22")),
    # the fractional budget (exact: false), a reducible base, and gap_coords
    # from t_orbit
    pytest.param(("betaint", "2121", "expand", "29"), id="expand-2121-29"),
    pytest.param(("betaint", "3202", "expand", "7"), id="expand-3202-7"),
    pytest.param(("betaint", "11", "succ", "101"), id="succ-11-101"),
    # the extension maps, the trident search and the sorted views of a scan
    pytest.param(("specials", "2121", "left", "-n", "5"), id="left-2121-5"),
    pytest.param(("specials", "21211", "tridents", "--length-bound", "12"),
                 id="tridents-21211-12"),
    # the downward walks of the maximal and trident searches, on a library
    # checked for suffix closure when it is built
    pytest.param(("specials", "2121", "maximal", "--length-bound", "20"),
                 id="maximal-2121-20"),
    pytest.param(("specials", "2121", "tridents", "--length-bound", "20"),
                 id="tridents-2121-20"),
    pytest.param(("scan", "--corpus", "m=2..3,digit<=2", "--oracle-n", "20"),
                 id="scan-m2-3"),
])
def test_classify_is_byte_identical_under_optimization(argv):
    plain, optimized = run_process((), *argv), run_process(("-O",), *argv)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
