"""Hostile inputs fail fast with their documented exit code, under a memory
limit: each row runs the CLI in a fresh interpreter whose address space is
capped, so a command that would exhaust memory fails here instead.  The
child starts with the optimisation of the test process, so that under
``python -O -m pytest`` every row runs optimised as well."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

MEMORY_LIMIT = 3 << 29  # 1.5 GiB of address space, set in the child only

# t_1 and t_3 near 10^9: the images of the substitution pass the text cap, so
# whatever spells them exits 4 before spelling; the structural verdict and
# the witness read no image
HUGE_DIGITS = "1000000000,1,1000000000,1"

# fifty thousand digits: a Parry check that compares each suffix with a
# prefix slice is quadratic in them.  1^50000 is valid; 1^49999 2 fails at
# its first suffix; 1 0^49998 2 passes every suffix but its last
ONES = ",".join("1" * 50000)
ONES_THEN_2 = ",".join("1" * 49999 + "2")
ZEROS_THEN_2 = ",".join("1" + "0" * 49998 + "2")
# m = 255, the widest alphabet a letter byte holds
ONES_255 = "1" * 255
# a beta-integer of base 11 with 100,000 digits
TEN_TO_99999 = "1" + "0" * 99999
# a first digit of 100,001 decimal digits: past Python's limit on int strings
HUGE_FIRST = "1" + "0" * 100000 + ",1"
# 1 0^253 1, m = 255: 10^12 expands to 2,726 digits
LONG_BASE = "1," + "0," * 253 + "1"
# 1 0^120 1, m = 122: 10^300 expands to 23,732 digits
BASE_122 = "1," + "0," * 120 + "1"
# first digits beyond float precision
FIRST_2_53 = "9007199254740993,5,1"
FIRST_10_160 = f"{10**160},3,1"
# short test ids for the long words
NAMES = {ONES: "1^50000", ONES_THEN_2: "1^49999,2", ZEROS_THEN_2: "1,0^49998,2",
         ONES_255: "1^255", TEN_TO_99999: "10^99999", HUGE_FIRST: "10^100000,1",
         LONG_BASE: "1,0^253,1", FIRST_10_160: "10^160,3,1", str(10**40): "10^40",
         str(10**300): "10^300", str(10**400): "10^400", BASE_122: "1,0^120,1",
         str(10**1000): "10^1000", str(10**3000): "10^3000"}

# (argv, exit code, wall-clock seconds)
ROWS = [
    # a substitution whose images would pass the text cap is refused before
    # any image is spelt
    (("classify", HUGE_DIGITS, "--oracle-n", "10"), 4, 1.0),
    (("generate", HUGE_DIGITS, "-L", "10"), 4, 1.0),
    (("specials", HUGE_DIGITS, "left", "-n", "3"), 4, 1.0),
    (("specials", HUGE_DIGITS, "maximal", "--length-bound", "3"), 4, 1.0),
    (("classify", HUGE_DIGITS), 0, 5.0),
    (("witness", HUGE_DIGITS), 0, 5.0),
    (("validate", ONES), 0, 1.0),
    # the power condition on the 49,999-letter prefix 1^49999
    (("classify", ONES), 0, 1.0),
    (("validate", ONES_THEN_2), 2, 1.0),
    (("validate", ZEROS_THEN_2), 2, 1.0),
    # a length or count cap is met before any text is built
    (("generate", "11", "-L", str(10**10)), 4, 1.0),
    (("classify", "11", "--oracle-n", str(10**10)), 4, 1.0),
    (("specials", "11", "maximal", "--length-bound", str(10**9)), 4, 1.0),
    (("specials", "11", "tridents", "--length-bound", str(10**9)), 4, 1.0),
    (("specials", "11", "left", "-n", str(10**9)), 4, 1.0),
    (("betaint", "11", "coding", "0", str(10**10)), 4, 1.0),
    (("scan", "--corpus", "m=2..14,digit<=9"), 4, 1.0),
    # the widest alphabet and words of 100,000 digits are read in time
    (("generate", ONES_255, "-L", "50"), 0, 1.0),
    (("classify", ONES_255, "--oracle-n", "50"), 0, 1.0),
    (("witness", ONES_255), 3, 1.0),
    (("betaint", "11", "succ", TEN_TO_99999), 0, 1.0),
    (("betaint", "11", "coding", TEN_TO_99999, "100"), 0, 1.0),
    (("validate", HUGE_FIRST), 1, 1.0),
    # a witness span of 2,122,757, past the text cap, is checked on runs of
    # blocks, and a walk takes a digit's worth of blocks in one step
    (("witness", "5222252221"), 0, 1.0),
    (("classify", "5222252221"), 0, 1.0),
    # digits near 10^6 and the 2,726 digits of 10^12 in base 1 0^253 1 are
    # read off one enclosure
    (("betaint", "1000000,0,0,0,0,0,1", "expand", str(10**9)), 0, 1.0),
    (("betaint", LONG_BASE, "expand", str(10**12)), 0, 1.0),
    # the start divides by the interval of beta, so long expansions cost
    # about the square of the bits of n; one whose start would pass the
    # work cap (426,419 digits) is refused before the interval is narrowed
    (("betaint", "11", "expand", str(10**1000)), 0, 2.0),
    (("betaint", "2121", "expand", str(10**1000)), 0, 2.0),
    (("betaint", BASE_122, "expand", str(10**300)), 0, 2.0),
    (("betaint", LONG_BASE, "expand", str(10**3000)), 4, 1.0),
    # a first digit beyond float precision is narrowed from above, and an
    # integer base expands by divmod
    (("betaint", FIRST_2_53, "expand", str(10**40)), 0, 1.0),
    (("betaint", "7", "expand", str(10**300)), 0, 1.0),
    (("betaint", FIRST_10_160, "expand", str(10**400)), 0, 1.0),
    # the JSON writer emits a prefix at the text cap and a long witness body
    (("generate", "11", "-L", str(1 << 20)), 0, 1.0),
    (("witness", "222222121"), 0, 1.0),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_child(*args):
    """A fresh interpreter with this one's optimisation and this checkout's
    package, its address space capped."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, *args],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_memory)


def test_children_run_with_the_optimisation_of_the_tests():
    proc = _run_child("-c", "import sys; print(sys.flags.optimize)")
    assert proc.stdout == f"{sys.flags.optimize}\n", proc.stderr


@pytest.mark.parametrize("argv, code, seconds", ROWS,
                         ids=[" ".join(NAMES.get(a, a) for a in r[0]) for r in ROWS])
def test_hostile_input_exits_in_time(argv, code, seconds):
    start = time.perf_counter()
    proc = _run_child("-m", "parryscope.cli", *argv)
    wall = time.perf_counter() - start
    assert proc.returncode == code, proc.stdout[-500:] + proc.stderr[-500:]
    assert wall < seconds
