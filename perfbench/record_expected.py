"""Record, from the commit checked out, the digest of the mathematical fields
of every result of the fixed-input workloads into expected.json.  Only results
that pass the independent checks are recorded.

    python3 perfbench/record_expected.py
"""

import json
import random

from run import import_package, judge, run_passes

import_package()

import workloads  # noqa: E402

workloads.expected = lambda: {}  # check against the definitions only, not an older record
out = {}
for name in ("classify_cold", "witness_corpus", "specials_session"):
    wl = workloads.WORKLOADS[name]
    verdicts = {}
    judge(wl, run_passes(wl, random.Random(0), 1), verdicts)
    out[name] = {key: wl.math_digest(key, summary)
                 for (key, summary), bad in verdicts.items() if bad is None}
    print(f"{name}: {len(out[name])} results recorded")
workloads.EXPECTED_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
