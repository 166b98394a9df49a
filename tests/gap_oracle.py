"""The two-sided zero-block inventory, kept as a test oracle.

Every factor X 0^r Y of the fixed point, with X and Y nonzero letters, is
read off a certified factor library and compared with the three families
that the structure predicts; ``Classification.first_excess_n`` cites them in
its proof for t_m >= 2.  A discrepancy indicates a bug in the library.
"""

from dataclasses import dataclass

from parryscope.analysis import factor_library
from parryscope.numeration import RenyiExpansion


def j_indices(d: RenyiExpansion) -> dict:
    """For k in 2..m the minimal back-step to a nonzero digit:
    j_k = min{i >= 1 : t_(k-i) != 0}.  Defined since t_1 > 0."""
    if d.m < 2:
        raise ValueError("j indices need m >= 2")
    out = {}
    for k in range(2, d.m + 1):
        for i in range(1, k):
            if d.digits[k - i - 1] != 0:
                out[k] = i
                break
    return out


@dataclass
class GapInventoryReport:
    """Factors of the shape X 0^r Y (X, Y nonzero) against the three
    structural families."""

    d: RenyiExpansion
    expected: set
    observed: set
    longest_zero_run: int
    prefix_length_used: int

    @property
    def missing(self) -> set:
        return self.expected - self.observed

    @property
    def extra(self) -> set:
        return self.observed - self.expected

    @property
    def ok(self) -> bool:
        return self.expected == self.observed


def expected_gap_inventory(d: RenyiExpansion) -> set:
    """The three families of X 0^r Y factors:
    j_k 0^(t_k) k for 2 <= k <= m-1, k 0^(t_1) 1 for 1 <= k <= m-1, and
    j_m 0^(t_1 + t_m) 1."""
    t = d.digits
    m = d.m
    j = j_indices(d)
    fam = set()
    for k in range(2, m):
        fam.add((j[k],) + (0,) * t[k - 1] + (k,))
    for k in range(1, m):
        fam.add((k,) + (0,) * t[0] + (1,))
    fam.add((j[m],) + (0,) * (t[0] + t[m - 1]) + (1,))
    return fam


def verify_gap_inventory(d: RenyiExpansion) -> GapInventoryReport:
    """Extract every X 0^r Y factor and compare."""
    need = d.t1 + d.digits[-1] + 2
    lib = factor_library(d, need)
    observed = set()
    zero_run = 0
    # every factor of length n <= need is an n-prefix of a longest factor,
    # cut here to need letters (a cached library may hold longer ones); such
    # an f has at most one X 0^r Y prefix: the one ending at its first
    # nonzero letter after f[0]
    for f in {f[:need] for f in lib.longest}:
        zero_run = max(zero_run, need - len(f.lstrip(b"\0")))
        tail = f[1:].lstrip(b"\0")
        if f[0] and tail:
            observed.add(tuple(f[:need + 1 - len(tail)]))
    return GapInventoryReport(d, expected_gap_inventory(d), observed, zero_run, lib.prefix_length)
