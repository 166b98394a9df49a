"""Command line interface.

Exit codes are stable contracts: 0 success, 1 usage or parse error,
2 validation failure, 3 construction not applicable, 4 internal
verification failure (including oracle disagreement in a scan), a
factor request above the text cap or a corpus above the candidate cap,
141 when the reader closes the output pipe early.
Each error class carries its code.
Single-object commands emit JSON; corpus scans emit TSV by default.

Command lines: after the command word, a line whose every token is a
positional or an exact option string followed by its value, none of them
starting with "-", is read by a plain matcher over the actions of that
command's parser; argparse reads every other line, so help text and usage
errors come from argparse alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import product
from json.encoder import encode_basestring_ascii

from . import analysis, numeration, substitution
from .errors import (
    BudgetExceeded,
    FractionalBudgetExceeded,
    NotApplicable,
    ParryViolation,
    ParryscopeError,
    UsageError,
    VerificationFailed,
)
from .words import fmt, satisfies_power_condition, word


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises UsageError on a usage error."""

    def error(self, message):
        raise UsageError(message)


def _json(v, indent="\n"):
    """The text of ``json.dumps(v, indent=2)`` for v nested at ``indent``
    (a newline and its spaces), without the pure-Python encoder that
    ``indent`` selects: scalars, and each list of plain ints at once, go
    through C code.  A key that is not a str raises TypeError.  A type
    that no output holds (a float) falls back to ``json.dumps``."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if v else "{}"
    if isinstance(v, (list, tuple)):
        # a list of plain ints (not bools) in one C pass
        items = (map(int.__repr__, v) if all(type(x) is int for x in v)
                 else [_json(x, inner) for x in v])
        return "[" + inner + ("," + inner).join(items) + indent + "]" if v else "[]"
    return json.dumps(v, indent=2)


def _emit(obj):
    print(_json(obj))


def _error_json(exc):
    info = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParryViolation):
        info["suffix_index"] = exc.index
    if isinstance(exc, NotApplicable):
        info["reason"] = exc.reason
    if isinstance(exc, VerificationFailed):
        info["condition"] = exc.condition
    return {"error": info}


def _base(args):
    return numeration.validate_renyi(args.d)


# ---------------------------------------------------------------------------
# corpus specification


CORPUS_CAP = 1 << 20  # candidate digit words in one corpus

# one alternative per field; the outer group of the matched one names it
_CORPUS_TOKEN = re.compile(
    r"(?P<m>m=(?P<m_min>[0-9]+)(?:\.\.(?P<m_max>[0-9]+))?)"
    r"|(?P<digit>digit<=(?P<bound>[0-9]+))"
    r"|(?P<tm>tm(?P<tm_rule>=1|>=2))"
    r"|(?P<power>(?:non)?power)"
)


class CorpusSpec:
    """Finite family of candidate digit words, e.g. "m=2..4,digit<=2,tm=1"."""

    def __init__(self, m_min: int = 2, m_max: int = 4, digit_bound: int = 2, tm: str = "any",
                 power: str = "any"):
        self.m_min = m_min
        self.m_max = m_max
        self.digit_bound = digit_bound
        self.tm = tm  # "any" | "=1" | ">=2"
        self.power = power  # "any" | "power" | "nonpower"

    @classmethod
    def parse(cls, text: str) -> "CorpusSpec":
        spec = cls()
        seen = {}  # field (m, digit, tm, power) -> the one token that sets it
        for raw in text.split(","):
            tok = raw.strip()
            if not tok:
                continue
            match = _CORPUS_TOKEN.fullmatch(tok)
            if match is None:
                raise UsageError(f"unknown corpus token: {tok!r}")
            field = match.lastgroup
            if field in seen:
                raise UsageError(f"corpus sets {field} twice: {seen[field]!r} and {tok!r}")
            seen[field] = tok
            if field == "m":
                spec.m_min = int(match["m_min"])
                spec.m_max = int(match["m_max"] or match["m_min"])
            elif field == "digit":
                spec.digit_bound = int(match["bound"])
            elif field == "tm":
                spec.tm = match["tm_rule"]
            else:
                spec.power = tok
        if spec.m_min < 2 or spec.m_max < spec.m_min:
            raise UsageError("corpus m range must be non-empty, with m at least 2")
        return spec

    def members(self):
        """All valid expansions in the family, plus the count of rejected
        candidates, in deterministic enumeration order.  Raises
        BudgetExceeded, before enumerating, for more than CORPUS_CAP
        candidates, counting all (K+1)^m digit words of each length m."""
        k = self.digit_bound
        candidates = 0
        for m in range(self.m_min, self.m_max + 1):
            candidates += (k + 1) ** m
            if candidates > CORPUS_CAP:
                raise BudgetExceeded(
                    f"corpus m={self.m_min}..{self.m_max}, digit<={k} "
                    f"has more than {CORPUS_CAP} candidate digit words"
                )
        # t_1 and t_m are at least 1; the tm filter narrows t_m
        last = {"any": range(1, k + 1), "=1": range(1, min(k, 1) + 1),
                ">=2": range(2, k + 1)}[self.tm]
        out = []
        skipped = 0
        for m in range(self.m_min, self.m_max + 1):
            for t in product(range(1, k + 1), *[range(k + 1)] * (m - 2), last):
                try:
                    d = numeration.validate_renyi(t)
                except ParryscopeError:
                    skipped += 1
                    continue
                if self.power != "any" and (
                        satisfies_power_condition(t[:-1]) != (self.power == "power")):
                    continue
                out.append(d)
        return out, skipped


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    try:
        d = _base(args)
    except ParryscopeError as exc:
        body = {"valid": False, "d": args.d}
        body.update(_error_json(exc))
        _emit(body)
        return exc.exit_code
    _emit({"valid": True, "d": fmt(d.digits), "m": d.m})
    return 0


def cmd_classify(args):
    # the oracle flag is reported, not enforced: a short oracle range is
    # inconclusive for a non-affine verdict (scan is the enforcing harness)
    d = _base(args)
    _emit(analysis.full_report(d, oracle_n=args.oracle_n))
    return 0


def cmd_witness(args):
    cls = analysis.classify_affine(_base(args))
    try:
        bundle = cls.witness
    except NotApplicable as exc:
        body = _error_json(exc)
        body["classification"] = cls.to_json()
        _emit(body)
        return exc.exit_code
    verification = analysis.verify_witness(cls.d, bundle)
    _emit({"bundle": bundle.to_json(), "verification": verification.to_json()})
    return 0


def cmd_generate(args):
    d = _base(args)
    prefix = substitution.fixed_point_prefix(d, args.length)
    s = substitution.build_substitution(d)
    _emit({
        "d": fmt(d.digits),
        "length": args.length,
        "prefix": fmt(prefix),
        "substitution": s.to_json(),
    })
    return 0


def _zero_alias(text):
    return () if text in ("", "0") else word(text)


# operands of each betaint op: (fewest, most, usage)
_BETAINT_ARITY = {"succ": (0, 1, "[WORD]"), "pred": (1, 1, "WORD"),
                  "coding": (2, 2, "START COUNT"), "expand": (1, 1, "N")}


def cmd_betaint(args):
    d = _base(args)
    fewest, most, operands = _BETAINT_ARITY[args.op]
    if not fewest <= len(args.args) <= most:
        raise UsageError(f"usage: betaint D {args.op} {operands}")
    if args.op == "succ":
        y = _zero_alias(args.args[0] if args.args else "")
        nxt = numeration.next_admissible(d, y)
        # the gap after y is the gap before its successor, whose letter is
        # the successor's trailing zero count mod m (see pred_gap_letter):
        # succ_gap_letter would run the automaton over y a second time
        letter = next(k for k, a in enumerate(reversed(nxt)) if a) % d.m
        _emit({
            "d": fmt(d.digits),
            "word": fmt(y),
            "next": fmt(nxt),
            "gap_letter": letter,
            "gap_coords": numeration.t_orbit(d, letter).to_json()["coords"],
        })
    elif args.op == "pred":
        y = _zero_alias(args.args[0])
        letter = numeration.pred_gap_letter(d, y)
        _emit({
            "d": fmt(d.digits),
            "word": fmt(y),
            "gap_letter": letter,
            "gap_coords": numeration.t_orbit(d, letter).to_json()["coords"],
        })
    elif args.op == "coding":
        start = _zero_alias(args.args[0])
        count = int(args.args[1])
        _emit({
            "d": fmt(d.digits),
            "start": fmt(start),
            "count": count,
            "coding": fmt(numeration.coding_of_segment(d, start, count)),
        })
    else:  # expand
        n = int(args.args[0])
        try:
            e = numeration.greedy_expand_integer(d, n)
            exact = True
        except FractionalBudgetExceeded as exc:
            e = exc.partial
            exact = False
        _emit({"d": fmt(d.digits), "n": n, "expansion": str(e), "exact": exact})
    return 0


def cmd_specials(args):
    d = _base(args)
    bound = args.length_bound
    if bound is None:  # an explicit 0 is a bound, not a request for the default
        bound = 2 * (d.t1 + d.digits[-1])
    if args.kind == "left":
        if args.n is None:
            raise UsageError("specials left needs -n LENGTH")
        report = analysis.special_factors(d, args.n)
        _emit(report.to_json())
    elif args.kind == "maximal":
        found = analysis.maximal_left_special(d, bound)
        _emit({
            "d": fmt(d.digits),
            "length_bound": bound,
            "maximal_left_special": [fmt(w) for w in found],
        })
    else:
        found = analysis.find_tridents(d, bound)
        _emit({
            "d": fmt(d.digits),
            "length_bound": bound,
            "tridents": [t.to_json() for t in found],
        })
    return 0


def _scan_row(d, oracle_n):
    cls = analysis.classify_affine(d, oracle_n=oracle_n)
    row = {
        "d": fmt(d.digits),
        "m": d.m,
        "verdict": "affine" if cls.affine else "not_affine",
        "reason": cls.reason or "",
        "slope": cls.slope if cls.affine else "",
        "oracle_affine": "",
        "agrees": "",
        "prefix_length": "",
    }
    if cls.oracle is not None:
        row["oracle_affine"] = cls.oracle.affine
        row["agrees"] = cls.oracle.agrees
        row["prefix_length"] = cls.oracle.profile.prefix_length_used
    return row, cls


def cmd_scan(args):
    spec = CorpusSpec.parse(args.corpus)
    members, skipped = spec.members()
    rows = []
    disagreement = False
    for d in members:
        row, cls = _scan_row(d, args.oracle_n)
        rows.append(row)
        if cls.oracle is not None and not cls.oracle.agrees:
            disagreement = True
    if args.format == "json":
        _emit({
            "corpus": args.corpus,
            "skipped": skipped,
            "rows": rows,
            "agreement": not disagreement,
        })
    else:
        cols = ["d", "m", "verdict", "reason", "slope", "oracle_affine",
                "agrees", "prefix_length"]
        print("\t".join(cols))
        for row in rows:
            print("\t".join(str(row[c]) for c in cols))
    return 4 if disagreement else 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    # the help text is the module docstring up to its note on command lines
    # (None under python -OO)
    description = __doc__ and __doc__.split("\n\nCommand lines:")[0]
    parser = _Parser(prog="parryscope", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a digit word as an expansion of 1")
    p.add_argument("d")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="affineness of the factor complexity")
    p.add_argument("d")
    p.add_argument("--oracle-n", type=int, default=None,
                   help="cross-check the verdict by enumeration up to this length")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("witness", help="construct and verify the non-affine witness")
    p.add_argument("d")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("generate", help="prefix of the substitution fixed point")
    p.add_argument("d")
    p.add_argument("-L", "--length", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("betaint", help="beta-integer operations")
    p.add_argument("d")
    p.add_argument("op", choices=["succ", "pred", "coding", "expand"])
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_betaint)

    p = sub.add_parser("specials", help="special factor inventories")
    p.add_argument("d")
    p.add_argument("kind", choices=["left", "maximal", "tridents"])
    p.add_argument("-n", type=int, default=None, help="factor length for 'left'")
    p.add_argument("--length-bound", type=int, default=None)
    p.set_defaults(func=cmd_specials)

    p = sub.add_parser("scan", help="classify a corpus of bases")
    p.add_argument("--corpus", required=True,
                   help='e.g. "m=2..4,digit<=2,tm=1,nonpower"')
    p.add_argument("--oracle-n", type=int, default=None)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_scan)

    parser.commands = sub.choices  # command word -> the parser of that command
    return parser


@functools.cache
def _table(command):
    """What ``_match`` reads of one command parser, from argparse's own list
    of its actions, -h first: the positionals in order, each option that
    takes a value by its exact option strings (so not -h), the dests of the
    required options, and the attributes a namespace starts from."""
    actions = command._actions
    positionals = [a for a in actions if not a.option_strings]
    options = {s: a for a in actions if a.nargs is None for s in a.option_strings}
    required = {a.dest for a in options.values() if a.required}
    start = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
    start["func"] = command.get_default("func")
    return positionals, options, required, start


def _value(action, text):
    """``text`` as argparse stores it for ``action``: converted by its type,
    then checked against its choices.  Raises ValueError or TypeError where
    argparse reports a usage error."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _match(command, rest):
    """The namespace that ``command.parse_args(rest)`` returns, or None.

    Reads, without argparse, a command line whose every token is a
    positional that does not start with "-", or an exact option string of
    the command (never -h) followed by a value that does not start with
    "-".  As argparse does, it converts types, checks choices, fails on a
    missing or extra positional and on a missing required option, keeps the
    last value of a repeated option and fills in the defaults and the
    command's ``func``.  Anything else (--opt=v, an abbreviation, -L5, --,
    a negative value, -h) gives None.  A "*" positional takes every
    positional left over; that is argparse's grouping as long as its
    command (betaint) has no option."""
    positionals, options, required, ns = _table(command)
    ns = dict(ns)
    words, given = [], set()
    tokens = iter(rest)
    try:
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
                continue
            action = options.get(token)
            text = next(tokens, "-")  # an option at the end has no value
            if action is None or text.startswith("-"):
                return None
            ns[action.dest] = _value(action, text)
            given.add(action.dest)
        for action in positionals:
            if action.nargs == "*":
                ns[action.dest] = [_value(action, w) for w in words]
                words = []
            elif words:
                ns[action.dest] = _value(action, words.pop(0))
            else:
                return None
    except (ValueError, TypeError):
        return None
    if words or not required <= given:
        return None
    return argparse.Namespace(**ns)


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit
    code.  A command word at argv[0] hands the rest of argv to ``_match``,
    which reads a line of plain positionals and exact options with their
    values.  A line it does not read goes to that command's parser, which
    is what the top-level parser, whose only option is -h, would hand it;
    a line with no command word goes through the top-level parser.  So
    every help text and usage error comes from argparse."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = _match(command, argv[1:]) or command.parse_args(argv[1:])
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left: end as a writer killed by SIGPIPE
        # on devnull, the interpreter's last flush of stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParryscopeError as exc:
        _emit(_error_json(exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
