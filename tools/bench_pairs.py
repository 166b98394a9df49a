"""Run the benchmark in alternating pairs against another tree and print,
per workload and end-to-end metric, how the two compare.

Usage: python tools/bench_pairs.py OTHER_ROOT [--pairs N] [--seconds S] [--seed K]
                                  [--workload NAME [--workload NAME ...]]

OTHER_ROOT is the root of the other checkout (the one holding its own
``perfbench/run.py``), e.g. ``../parent``; keep both trees under one
directory so that both run from the same disk.  For each workload of
``BENCHMARK.json``, or each one named by a ``--workload`` (repeatable; a
name not in ``BENCHMARK.json`` is refused), each pair runs the benchmark
command once in this tree and once in OTHER_ROOT, one process at a time,
and the side that runs first alternates from pair to pair.  Each run is
``--trace 0`` with the same seed and seconds on both sides.

For each end-to-end metric it prints both medians, the other tree's
quartiles and its IQR as a share of its median, the ratio of the medians
(this tree over the other), the metric's bound from ``BENCHMARK.json`` and
the pairs won by each side.  A metric whose other-tree IQR share exceeds its
bound is marked ``unresolved``, since the noise of unchanged code alone
reaches the bound, unless every run of this tree reads better than every
run of the other.  A run that reports failed operations or wrong results is
listed.  Nothing is gated: the exit code is 0 unless a run gives no result.

Where ``PYTHONDONTWRITEBYTECODE`` is set, no run writes bytecode, so each
fresh import that ``setup_s`` times compiles the package from source unless a
``__pycache__`` is already there; a stale or partial one in either tree moves
that side's ``setup_s`` by 10 to 26%.  So before the first pair the tool
prints one line for each ``__pycache__`` directory under either tree's
``src/``, and runs on: remove them for a fair ``setup_s``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run(root: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench_pairs: {workload} gave no result in {root}")
    return json.loads(lines[-1])


def quartiles(xs: list) -> tuple:
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def report(workload: str, metrics: list, runs: dict) -> None:
    print(f"\n{workload}: {len(runs['here'])} pairs")
    print(f"  {'metric':<12} {'here':>10} {'other':>10} {'other q1':>10} {'other q3':>10}"
          f" {'iqr/med':>8} {'ratio':>7} {'bound':>6} {'wins':>7}")
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        here = [r["metrics"][name]["value"] for r in runs["here"]]
        other = [r["metrics"][name]["value"] for r in runs["other"]]
        q1, med, q3 = quartiles(other)
        share = (q3 - q1) / med if med else 0.0
        mine = statistics.median(here)
        wins = sum((a > b) if higher else (a < b) for a, b in zip(here, other))
        losses = sum((a < b) if higher else (a > b) for a, b in zip(here, other))
        apart = min(here) > max(other) if higher else max(here) < min(other)
        note = "unresolved" if share > spec["bound"] and not apart else ""
        print(f"  {name:<12} {mine:>10.4g} {med:>10.4g} {q1:>10.4g} {q3:>10.4g}"
              f" {share:>8.1%} {mine / med if med else float('nan'):>7.3f}"
              f" {spec['bound']:>6.0%} {wins:>3}:{losses:<3} {note}".rstrip())
    for side in ("here", "other"):
        for i, r in enumerate(runs[side]):
            if r["failed"] or not r["correct"]:
                print(f"  {side} pair {i + 1}: failed {r['failed']} of {r['attempted']}, "
                      f"correct {r['correct']}")


def main() -> int:
    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable); all when absent")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    other = args.other_root.resolve()
    if not (other / "perfbench" / "run.py").is_file():
        parser.error(f"{other} holds no perfbench/run.py")
    print(f"here {HERE}, other {other}; {args.pairs} pairs, seed {args.seed}, "
          f"{args.seconds:g} s per run; ratio = here / other")
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        for root in (HERE, other):
            for cache in sorted((root / "src").rglob("__pycache__")):
                print(f"stray bytecode cache {cache}: with PYTHONDONTWRITEBYTECODE set, "
                      f"it moves this tree's setup_s by 10 to 26%")
    for workload in args.workload or names:
        runs = {"here": [], "other": []}
        for i in range(args.pairs):
            sides = [("here", HERE), ("other", other)]
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run(root, bench["command"], workload, args.seed, args.seconds))
            print(f"{workload}: pair {i + 1} of {args.pairs} done", file=sys.stderr)
        report(workload, bench["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
