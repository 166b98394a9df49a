"""The mutant register: each row breaks the package in one known way, and the
tests it names must catch it.

Usage: python tools/mutants.py [--root DIR] [NAME ...]

For each row (or each row whose name is given), the tool copies ``src/`` and
``tests/`` of DIR (default: this checkout) to a temporary directory, replaces
the row's old text, which must occur exactly once in its module, by the new
text, and runs ``pytest -x -q`` there on the row's tests with ``PYTHONPATH``
set to the copy.  A failing run kills the mutant; a passing one lets it
survive.  A row whose old text is absent or repeated is stale.  First, the
union of the rows' tests runs once on the unmutated copy: a test that fails
there would kill every mutant.

A row marked equivalent states why no test can tell it from the package; it
must survive.  Prints one line per row, with the time, and exits 1 on an
unmarked survivor, a killed equivalent, a stale row or a run that names no
test.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds for one row's tests; a mutant that hangs them is killed


class Mutant:
    def __init__(self, name, module, old, new, tests, note, equivalent=None):
        self.name, self.module, self.old, self.new = name, module, old, new
        self.tests, self.note, self.equivalent = tests, note, equivalent


N, A, C, W = "numeration", "analysis", "cli", "words"
T_NUM, T_AN = "tests/test_numeration.py", "tests/test_analysis.py"
HOSTILE = "tests/test_hostile.py::test_hostile_input_exits_in_time"

ROWS = [
    # the start of the greedy expansion: 2^e n / beta^k, rounded outward
    Mutant("start-floor-b", N, "-((-b << e) // lo)", "-(-b << e) // lo",
           [f"{T_NUM}::test_an_integer_next_to_a_power_of_beta_starts_in_its_place"],
           "a floor for the ceiling of b: the upper end can fall below 2^e n / beta^k"),
    Mutant("start-stops-early", N, "while b >> e:  #", "while b >> e > 1:  #",
           [f"{T_NUM}::test_greedy_golden_examples"],
           "the start stops at b < 2^(e+1): k is one short whenever 1 <= n / beta^k < 2"),
    Mutant("carried-low-by-p-low", N, "(low << e) // p_high", "(low << e) // p_low",
           [f"{T_NUM}::test_carried_bounds_enclose_a_value_divided_by_a_power_of_beta"],
           "_carried divides the lower end of v by the lower end of p"),
    Mutant("carried-high-floored", N, "-((-high << e) // p_low)", "(high << e) // p_low",
           [f"{T_NUM}::test_carried_bounds_enclose_a_value_divided_by_a_power_of_beta"],
           "_carried floors its upper bound"),
    # the digit loop and its fallback
    Mutant("no-narrowing-loop", N, "while (b >> e) - ((a - 1) >> e) > 1:", "while False:",
           [f"{T_NUM}::test_a_wide_enclosure_is_narrowed_and_read_again"],
           "a fallback reads two multiples of 2^e or more as one"),
    Mutant("one-multiple-off-by-one", N, "if (a - 1) >> e < x:", "if (a - 1) >> e < x - 1:",
           [f"{T_NUM}::test_greedy_golden_examples"],
           "the one-multiple test misses its one multiple, so no sign decides it"),
    Mutant("loop-high-floored", N, "a, b = lo * a >> e, -(-hi * b >> e)",
           "a, b = lo * a >> e, hi * b >> e",
           [f"{T_NUM}::test_an_exact_last_digit_stays_inside_the_carried_enclosure"],
           "the digit loop rounds the upper end of beta r down"),
    Mutant("no-add-back", N, "rem = [u + c for u, c in zip(rem, p)]", "rem = rem",
           [f"{T_NUM}::test_an_undecided_digit_falls_back_and_the_enclosure_is_read_again"],
           "no + p after a negative sign: the remainder stays below 0"),
    # exact signs and the interval of beta
    Mutant("enclosure-parts-swapped", N, "return pl - nh, ph - nl", "return pl - nl, ph - nh",
           [f"{T_NUM}::test_sign_matches_reference_on_random_elements",
            f"{T_NUM}::test_a_deep_sign_continues_each_narrowing_from_the_interval_before"],
           "the negative part bounded at the wrong end of the interval"),
    Mutant("narrow-no-certificate", N,
           "while not _parry_at(d, lo, e)[0] < 0 < _parry_at(d, hi, e)[0]:", "while False:",
           [f"{T_NUM}::test_narrowing_is_certified_and_never_widens"],
           "a narrowed interval is taken without the sign change of P that certifies it"),
    # admissibility and the base
    Mutant("parry-one-above", N, "if j + k < m and w[j + k] > w[k]:",
           "if j + k < m and w[j + k] > w[k] + 1:",
           [f"{T_NUM}::test_parry_check_matches_the_padded_definition"],
           "the Parry check lets a suffix exceed the word by one in its first differing digit"),
    Mutant("admit-larger-digit", N, "        else:\n            return False\n        states",
           "        else:\n            k = 0\n        states",
           [f"{T_NUM}::test_admissibility_golden_examples"],
           "the automaton reads a digit above its period digit as a smaller one"),
    # words
    Mutant("z-reuse-uncapped", W, "k = min(right - j, z[j - left]) if j < right else 0",
           "k = z[j - left] if j < right else 0",
           ["tests/test_words.py::test_shifts_and_lcp_match_slice_comparisons"],
           "the Z-array reuses a box value past the box's right end"),
    # the factor library
    Mutant("joint-slice-late", A, "texts[block[max(0, p - edge):p + edge]] = None",
           "texts[block[max(0, p - edge + 1):p + edge]] = None",
           [f"{T_AN}::test_joint_reader_equals_the_whole_block_reader"],
           "the slice around a joint starts one letter late"),
    Mutant("whole-blocks-at-max-len", A, "if len(block) <= 2 * max_len:",
           "if len(block) <= max_len:",
           [f"{T_AN}::test_joint_reader_equals_the_whole_block_reader"],
           "only blocks of at most max_len letters are read whole",
           equivalent="the threshold only trades slices for whole blocks: a block of up to "
                      "2 max_len letters opened at its joints and sub-blocks yields the "
                      "same windows as the block read whole"),
    # the special-factor inventories
    Mutant("letters-wrong-byte", A, "letter = shift - 8  #", "letter = shift  #",
           [f"{T_AN}::test_branches_reject_lengths_outside_the_library"],
           "branches reads a node's letters off the last byte of its prefix"),
    Mutant("maximal-by-suffix", A, "{v[:-1] for v in longer}", "{v[1:] for v in longer}",
           [f"{T_AN}::test_maximal_left_specials_match_brute_force_search"],
           "a left special factor counts as extended when it ends a longer one"),
    Mutant("report-shares-level", A, "left = dict(lib.reversed_view.branches(n))",
           "left = lib.reversed_view.branches(n)",
           [f"{T_AN}::test_a_report_cannot_corrupt_the_warm_cache"],
           "special_factors hands out the kept level of left special factors"),
    Mutant("trident-equal-left-letters", A, "if ly != lz:", "if ly == lz:",
           [f"{T_AN}::test_tridents_match_brute_force_search"],
           "two plain teeth with the same left letter make a trident"),
    # verify_witness
    Mutant("witness-no-i", A, "        if _sign(d, _excess(d, end, x, z)):",
           "        if False:",
           [f"{T_AN}::test_a_walk_ending_off_x_plus_z_fails_condition_i"],
           "condition (i): the end of a walk is not checked against x + z"),
    Mutant("witness-no-ii", A, "if preds[0] == preds[1]:", "if False:",
           [f"{T_AN}::test_tampered_witness_fails_its_condition"],
           "condition (ii): equal gaps before x1 and x2 pass"),
    Mutant("witness-no-iii", A, "if state != 0:", "if False:",
           [f"{T_AN}::test_tampered_witness_fails_its_condition"],
           "condition (iii): the gap after x + z is not checked"),
    Mutant("witness-iv-no-upper", A,
           "0 < bundle.a_pad <= k <= bundle.a_pad + len(bundle.c) < d.m",
           "0 < bundle.a_pad <= k",
           [T_AN, "-k", "tampered_witness or condition_iv or index_bounds"],
           "condition (iv) without the upper index bounds on a_pad and c"),
    # the command line
    Mutant("match-no-required", C, "if words or not required <= given:", "if words:",
           ["tests/test_cli.py::test_the_matcher_reads_a_plain_line_as_argparse_does"],
           "the plain-line matcher accepts a line missing a required option"),
    # the work cap of greedy expansions
    Mutant("expand-cap-tenth", N, "> EXPAND_CAP:", "> EXPAND_CAP // 10:",
           [f"{HOSTILE}[betaint 1,0^120,1 expand 10^300]"],
           "the expansion cap a tenth as large refuses an expansion it must accept"),
]


def _copy(root: Path, dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(root / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def _pytest(tree: Path, args: list) -> tuple:
    """(return code, seconds) of ``pytest -x -q`` on args in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *args], cwd=tree, env=env, capture_output=True,
                            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        rc = "timeout"
    return rc, time.perf_counter() - start


def _module(tree: Path, row: Mutant) -> Path:
    return tree / "src" / "parryscope" / f"{row.module}.py"


def main(argv: list) -> int:
    root = ROOT
    if argv[:1] == ["--root"]:
        root, argv = Path(argv[1]).resolve(), argv[2:]
    rows = [r for r in ROWS if not argv or r.name in argv]
    if len(rows) < len(set(argv)):
        sys.exit(f"unknown rows: {sorted(set(argv) - {r.name for r in ROWS})}")
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        _copy(root, tree)
        live = [r for r in rows if _module(tree, r).read_text().count(r.old) == 1]
        ids = list(dict.fromkeys(t for r in live if "-k" not in r.tests for t in r.tests))
        for args in [ids] + [r.tests for r in live if "-k" in r.tests]:
            rc, seconds = _pytest(tree, args)
            print(f"{'baseline':<10} {seconds:6.1f} s  {len(args)} test arguments "
                  f"on the unmutated tree: rc {rc}")
            if rc != 0:
                return 1
        for row in rows:
            path = _module(tree, row)
            text = path.read_text()
            if row not in live:
                verdict, seconds = f"stale ({text.count(row.old)} matches)", 0.0
            else:
                path.write_text(text.replace(row.old, row.new))
                rc, seconds = _pytest(tree, row.tests)
                path.write_text(text)
                verdict = ("survived" if rc == 0 else "killed" if rc in (1, 2, "timeout")
                           else f"error (rc {rc})")
            if verdict == "survived" and row.equivalent:
                status = f"equivalent: {row.equivalent}"
            elif verdict == "killed" and row.equivalent:
                status, bad = "KILLED, BUT MARKED EQUIVALENT", bad + 1
            elif verdict != "killed":
                status, bad = verdict.upper(), bad + 1
            else:
                status = verdict
            print(f"{verdict.split()[0]:<10} {seconds:6.1f} s  {row.module}: {row.name}: "
                  f"{row.note}" + ("" if status == verdict else f"  [{status}]"))
    print(f"{len(rows)} rows, {bad} not killed or marked equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
