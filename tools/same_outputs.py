"""Run one fixed set of CLI commands in this tree and in another, and compare
their exit codes, standard output and standard error.

Usage: python tools/same_outputs.py OTHER_SRC

OTHER_SRC is the directory that holds the other tree's ``parryscope``
package, e.g. ``../parent/src``.  Each tree runs the whole set in one child
process, in order and in-process (``parryscope.cli.main``), so the factor
cache carries from one command to the next as in a long-lived caller.  The
set:

* ``classify D --oracle-n 30`` on the 66 bases of m=2..4,digit<=2 and
  m=2..4,digit<=3,tm>=2;
* ``witness D`` on the 279 bases of m=2..7,digit<=3,tm=1,nonpower;
* ``specials D left -n N`` for N = 1..40, ``specials D maximal
  --length-bound 40`` and ``specials D tridents --length-bound 20`` on
  twelve named bases;
* ``betaint D expand N`` for N = 1..60 on the 77 bases of m=2..5,digit<=2,
  for N = 1..30 on the 213 bases of m=2..5,digit<=3 that have a digit 3,
  and for N = 7 and 1000 on four long or wide bases written with commas:
  2 0^60 1, 1 0^120 1, 3^24 and 1000 1;
* ``betaint D expand N`` for N = 10^6, 10^12 and 10^30 on the twelve named
  bases, those four and 1000000 0^5 1, for N = 10^200 (a long start) on the
  twelve named bases and those four, and for N = 1..3 (a single digit) on
  11, 21 and 1000 1;
* ``betaint D expand N`` for N = 1..60, 10^30 and 10^100 on the integer
  bases 2, 3, 7 and 9, and for N = 10^6, 10^30 and 10^60 on three bases
  whose t_1 is beyond float precision: 100000000000000001 1,
  9007199254740993 5 1 and 10^40 3 1;
* on the twelve named bases: ``generate D -L N`` for N = 0, 1, 50 and 5000;
  ``betaint D coding START COUNT`` from 0, 1, 10 and 100, with COUNT = 1, 37
  and 1000; ``betaint D succ W`` for the first 50 admissible W; and
  ``betaint D pred W`` for the first 50 nonzero admissible W;
* ``witness`` and ``classify`` on 5222252221, whose witness spans 2,122,757
  gaps, and ``betaint 1000000,0,0,0,0,0,1 expand 1000000000``;
* ``witness D`` and ``classify D --oracle-n 10`` on three bases whose words
  are written with commas: 12,3,12,1 (letters of 10 or more), 300,2,300,1
  (of 256 or more) and 2,1,1,1,1,1,1,1,1,1,2,1 (m = 12); and ``witness``
  and ``classify`` on 1000000000,1,1000000000,1, whose span passes the text
  cap, so that its w0 is null (it takes no oracle: its images pass the
  text cap, and a tree from before that cap runs out of memory);
* the error and null shapes: ``validate D`` and ``classify D`` (no oracle:
  null fields) on the twelve named bases, ``validate`` on the invalid 12 (a
  ``suffix_index``) and 10, ``witness`` on 11 and 22 (not applicable, with
  the classification) and on 2 (one letter), ``betaint 2121 pred 0``, and
  ``scan --corpus "m=2..3,digit<=2"`` as TSV and as JSON;
* the shapes of a command line: ``--oracle-n=5``, the abbreviation
  ``--oracle 5``, ``-L5`` and ``-n5``; ``--`` before a positional and
  ``betaint 11 coding 0 -1``; an option before the positional, a repeated
  option, a negative option value (``--oracle-n -5``) and an empty ``*``
  positional (``betaint 11 succ``); a bad int, a bad choice of a positional
  and of an option (``--format xml``), a missing positional, a missing
  required option and an unrecognized option; ``-h`` after each command, no
  arguments, ``-h`` alone and an unknown command.  Help ends in
  ``SystemExit``, whose code is recorded as the exit code, so help text is
  compared as well.

That is 13661 commands.

Prints the first difference, or ``identical: N commands``; exits 1 on a
difference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"
SPECIALS_BASES = ("11", "22", "111", "211", "201", "2112", "321", "2121", "21211",
                  "301002", "3312331", "222222121")
COMMA_BASES = ("12,3,12,1", "300,2,300,1", "2,1,1,1,1,1,1,1,1,1,2,1")
HUGE_SPAN_BASE = "1000000000,1,1000000000,1"
EXPAND_BASES = [(2,) + (0,) * 60 + (1,), (1,) + (0,) * 120 + (1,), (3,) * 24, (1000, 1)]
WIDE_BASE = (1000000, 0, 0, 0, 0, 0, 1)
INTEGER_BASES = ("2", "3", "7", "9")
HUGE_T1_BASES = ("100000000000000001,1", "9007199254740993,5,1", f"{10**40},3,1")
COMMANDS = ("validate", "classify", "witness", "generate", "betaint", "specials", "scan")
SHAPES = [["classify", "11", "--oracle-n=5"], ["classify", "11", "--oracle", "5"],
          ["generate", "11", "-L5"], ["specials", "11", "left", "-n5"],
          ["validate", "--", "2121"], ["betaint", "11", "coding", "0", "-1"],
          ["classify", "--oracle-n", "5", "11"],
          ["classify", "11", "--oracle-n", "3", "--oracle-n", "5"],
          ["classify", "11", "--oracle-n", "-5"], ["betaint", "11", "succ"],
          ["scan", "--corpus", "m=2..3", "--format", "xml"],
          ["classify", "11", "--oracle-n", "x"], ["specials", "11", "middle"],
          ["validate"], ["generate", "11"], ["validate", "11", "--bogus"],
          *([cmd, "-h"] for cmd in COMMANDS), [], ["-h"], ["frobnicate", "11"]]

# runs in the child: read the commands from stdin, write [rc, out, err] per command
CHILD = """
import contextlib, io, json, sys
import parryscope
from parryscope import cli
results = [parryscope.__file__]
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # help
            rc = exc.code
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def commands() -> list:
    sys.path.insert(0, str(HERE_SRC))
    from parryscope.cli import CorpusSpec
    from parryscope.numeration import beta_integers, validate_renyi
    from parryscope.words import fmt

    def corpus(*specs):
        found = {d.digits for spec in specs for d in CorpusSpec.parse(spec).members()[0]}
        return [fmt(t) for t in sorted(found, key=lambda t: (len(t), t))]

    out = [["classify", s, "--oracle-n", "30"]
           for s in corpus("m=2..4,digit<=2", "m=2..4,digit<=3,tm>=2")]
    out += [["witness", s] for s in corpus("m=2..7,digit<=3,tm=1,nonpower")]
    for s in SPECIALS_BASES:
        out += [["specials", s, "left", "-n", str(n)] for n in range(1, 41)]
        out.append(["specials", s, "maximal", "--length-bound", "40"])
        out.append(["specials", s, "tridents", "--length-bound", "20"])
    small = corpus("m=2..5,digit<=2")
    for s in small:
        out += [["betaint", s, "expand", str(n)] for n in range(1, 61)]
    for s in corpus("m=2..5,digit<=3"):
        if s not in small:
            out += [["betaint", s, "expand", str(n)] for n in range(1, 31)]
    for t in EXPAND_BASES:
        out += [["betaint", ",".join(map(str, t)), "expand", str(n)] for n in (7, 1000)]
    for s in SPECIALS_BASES + tuple(",".join(map(str, t)) for t in EXPAND_BASES + [WIDE_BASE]):
        out += [["betaint", s, "expand", str(10**k)] for k in (6, 12, 30)]
    for s in SPECIALS_BASES + tuple(",".join(map(str, t)) for t in EXPAND_BASES):
        out.append(["betaint", s, "expand", str(10**200)])
    for s in ("11", "21", "1000,1"):
        out += [["betaint", s, "expand", str(n)] for n in (1, 2, 3)]
    for s in INTEGER_BASES:
        out += [["betaint", s, "expand", str(n)] for n in [*range(1, 61), 10**30, 10**100]]
    for s in HUGE_T1_BASES:
        out += [["betaint", s, "expand", str(10**k)] for k in (6, 30, 60)]
    for s in SPECIALS_BASES:
        out += [["generate", s, "-L", str(n)] for n in (0, 1, 50, 5000)]
        out += [["betaint", s, "coding", start, str(count)]
                for start in ("0", "1", "10", "100") for count in (1, 37, 1000)]
        ws = beta_integers(validate_renyi(s))
        out += [["betaint", s, "succ", fmt(next(ws)) or "0"] for _ in range(50)]
        ws = beta_integers(validate_renyi(s))
        next(ws)
        out += [["betaint", s, "pred", fmt(next(ws))] for _ in range(50)]
    out += [["witness", "5222252221"], ["classify", "5222252221"],
            ["betaint", "1000000,0,0,0,0,0,1", "expand", "1000000000"]]
    for s in COMMA_BASES:
        out += [["witness", s], ["classify", s, "--oracle-n", "10"]]
    out += [["witness", HUGE_SPAN_BASE], ["classify", HUGE_SPAN_BASE]]
    out += [[cmd, s] for cmd in ("validate", "classify") for s in SPECIALS_BASES]
    out += [["validate", "12"], ["validate", "10"], ["witness", "11"], ["witness", "22"],
            ["witness", "2"], ["betaint", "2121", "pred", "0"]]
    out += [["scan", "--corpus", "m=2..3,digit<=2", *form] for form in ([], ["--format", "json"])]
    return out + SHAPES


def run(src: Path, argvs: list) -> list:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, check=True)
    package, *results = json.loads(proc.stdout)
    if not Path(package).resolve().is_relative_to(src.resolve()):
        sys.exit(f"{src}: imported parryscope from {package}")
    return results


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    argvs = commands()
    here, there = run(HERE_SRC, argvs), run(Path(sys.argv[1]), argvs)
    for argv, a, b in zip(argvs, here, there):
        for name, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                print(f"differ: {' '.join(argv)}: {name}\n  here:  {x!r:.300}\n  there: {y!r:.300}")
                return 1
    print(f"identical: {len(argvs)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
