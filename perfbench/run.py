"""Benchmark of parryscope's CLI and library: four closed-loop workloads.

One run measures one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one thread issues each operation after the previous one
returns.  A run makes whole passes over the workload's inputs, as many as
come closest to ``--seconds`` at the reference speed (two at least), so every
run sees the same mix of inputs the same number of times.  Times are scaled
to a reference machine speed and an input's time is the fastest of its
passes (README.md says why).  Every output is checked after the measurement.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``; the per-layer metrics of a traced run, with the tracing
overhead, with ``--trace 1``).

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

runs every workload untraced and traced, each in a fresh process, prints
every metric by name with its unit, and writes them to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("classify_cold", "witness_corpus", "exact_arith", "specials_session")
SETUP_RUNS = 11
READY = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import parryscope, parryscope.cli; print('ready', flush=True)")

# Timings are scaled to a reference machine speed.  The speed of a shared
# machine swings by a quarter or more within seconds as other tenants come
# and go, and both the gauge and parryscope are pure-Python work that slows
# together.  GAUGE_REF_S is the gauge's median time on an idle core of the
# 2-vCPU machine where the benchmark was defined (Python 3.11).
GAUGE_REF_S = 0.0007
GAUGE_WINDOW = 10  # operations on each side whose gauge times scale an operation

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

Record = namedtuple("Record", "key summary seconds error gauge")


def gauge() -> float:
    """Time of a fixed pure-integer computation (allocates no tracked
    objects, so the program's heap does not affect it)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(12000):
        s += i * i % 7
    return time.perf_counter() - t0


def import_package():
    """Import parryscope from this checkout's src/, or exit without a result."""
    if sys.flags.optimize:
        sys.exit("perfbench: run without -O; the program's assertions are part of what is measured")
    sys.path.insert(0, str(SRC))
    try:
        import parryscope
        import parryscope.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import parryscope from {SRC}: {exc}")
    if Path(parryscope.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: parryscope was imported from {parryscope.__file__}, not {SRC}")


def measure_setup():
    """Median time for a fresh interpreter to import parryscope and
    parryscope.cli, as (scaled, raw) seconds."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    samples, gauges = [], []
    for i in range(SETUP_RUNS + 1):  # the first one compiles bytecode and is not counted
        g = gauge()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY, str(SRC)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            sys.exit("perfbench: a fresh interpreter could not import parryscope")
        if i:
            samples.append(elapsed)
            gauges.append(g)
    raw = statistics.median(samples)
    return raw * GAUGE_REF_S / statistics.median(gauges), raw


def run_passes(wl, rng, passes):
    """Run ``passes`` whole passes; returns the records.

    Summaries are interned per input so that memory holds only the distinct
    outputs.
    """
    units = wl.units(rng)
    records = []
    interned = {}
    for _ in range(passes):
        rng.shuffle(units)
        for key, setup, call in (op for unit in units for op in unit):
            if setup is not None:
                setup()
            g = gauge()
            summary = error = None
            t0 = time.perf_counter()
            try:
                raw = call()
            except Exception as exc:  # any failure of the program counts, AssertionError too
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    summary = wl.summarize(key, raw)
                except (AttributeError, KeyError, TypeError) as exc:
                    error = f"{key}: malformed result ({type(exc).__name__}: {exc})"
                else:
                    summary = interned.setdefault((key, summary), summary)
            records.append(Record(key, summary, dt, error, g))
    return records


def judge(wl, records, verdicts):
    """Check every distinct output once (``verdicts`` caches the checks).

    Returns (success flag per record, failures, wrong results, messages).
    """
    success = []
    failures = wrong = 0
    messages = []
    for r in records:
        error = r.error
        if error is None:
            if (r.key, r.summary) not in verdicts:
                try:
                    verdicts[r.key, r.summary] = wl.check(r.key, r.summary)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    verdicts[r.key, r.summary] = (
                        "wrong", f"{r.key}: malformed output ({type(exc).__name__}: {exc})")
            bad = verdicts[r.key, r.summary]
            if bad is None:
                success.append(True)
                continue
            kind, error = bad
            wrong += kind == "wrong"
        success.append(False)
        failures += 1
        if error not in messages:
            messages.append(error)
    return success, failures, wrong, messages


def scaled(records):
    """Operation times at the reference speed: each is multiplied by
    GAUGE_REF_S over the median gauge time of the operations around it."""
    gauges = [r.gauge for r in records]
    return [r.seconds * GAUGE_REF_S
            / statistics.median(gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1])
            for i, r in enumerate(records)]


def timing(records, times, success):
    """Each input's time is the fastest of the passes that ran it, which keeps
    the bursts of other tenants' load that the gauge misses out of it.

    Returns (successful operations per second of a pass at those times,
    failed operations' time included; the times of the inputs that
    succeeded, each the fastest of its successful runs).
    """
    runs = defaultdict(list)
    for r, t, ok in zip(records, times, success):
        runs[r.key].append((t, ok))
    done = sum(sum(ok for _, ok in v) / len(v) for v in runs.values())
    rate = done / sum(min(t for t, _ in v) for v in runs.values())
    ok_times = [min(t for t, ok in v if ok) for v in runs.values() if any(ok for _, ok in v)]
    return rate, ok_times


def run_one(args) -> int:
    import_package()
    setup_s, setup_raw = measure_setup() if not args.trace else (None, None)
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = f"{args.workload}:{args.seed}"
    # The pass count depends on --seconds only, never on how fast this
    # machine happens to be, so that every run takes the best of as many
    # passes; two at least, so that there is a best to take.
    passes = max(2, round(args.seconds / wl.pass_s))
    if args.trace:
        # the untraced half and the traced half run the same inputs; their
        # rates give the tracing overhead
        passes = max(1, passes // 2)
        plain = run_passes(wl, random.Random(seed), passes)
        with tracing.Tracer() as tracer:
            traced = run_passes(wl, random.Random(seed), passes)
        records = plain + traced
    else:
        records = run_passes(wl, random.Random(seed), passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = {}
    success, failures, wrong, messages = judge(wl, records, verdicts)
    for msg in messages[:20]:
        print(f"failure: {msg}")
    if not any(success):
        sys.exit("perfbench: no operation succeeded")
    rate, ok_times = timing(records, scaled(records), success)
    raw_rate, raw_ok = timing(records, [r.seconds for r in records], success)

    info = {
        "workload": wl.name, "seed": args.seed, "passes": passes,
        "attempted": len(records), "failed": failures, "wrong": wrong,
        "fail_frac": failures / len(records),
        "tail_percentile": wl.tail_pct, "inputs_timed": len(ok_times),
        "gauge_ms_median": statistics.median(r.gauge for r in records) * 1000,
        "unscaled_ops_per_s": raw_rate, "unscaled_op_ms_p50": statistics.median(raw_ok) * 1000,
        "unscaled_setup_s": setup_raw,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    print("info " + json.dumps(info))
    if args.trace:
        layer = tracer.metrics(passes)
        untraced = timing(plain, scaled(plain), success[:len(plain)])[0]
        traced_rate = timing(traced, scaled(traced), success[len(plain):])[0]
        layer["trace.ops_per_s_untraced"] = untraced
        layer["trace.ops_per_s_traced"] = traced_rate
        layer["trace.overhead_frac"] = 1 - traced_rate / untraced
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        cuts = statistics.quantiles(ok_times, n=100, method="inclusive")
        values = {
            "ops_per_s": rate,
            "op_ms_p50": statistics.median(ok_times) * 1000,
            "op_ms_tail": cuts[wl.tail_pct - 1] * 1000,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name} fail_frac {info['fail_frac']:.6g} ({failures}/{len(records)})")
    print(f"{wl.name} op_ms_tail is p{wl.tail_pct} over {len(ok_times)} inputs; "
          f"{passes} pass(es), python {info['python']}, nproc {info['nproc']}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failures, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"perfbench: {name} --trace {trace} failed")
            result = json.loads(lines[-1])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                entry["correct"] = result["correct"]
                info = next(line for line in lines if line.startswith("info "))
                entry["run"] = json.loads(info[len("info "):])
            for line in lines[:-1]:
                if not line.startswith("info "):
                    print(line)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here as JSON")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
