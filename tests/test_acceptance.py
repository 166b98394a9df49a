"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything asserted here is exact integer equality; enumeration oracles
recompute their expectations independently of the code path under test.
"""

import pytest

from gap_oracle import expected_gap_inventory, verify_gap_inventory
from parryscope.analysis import (
    classify_affine,
    complexity_profile,
    construct_witness,
    factor_library,
    maximal_left_special,
    verify_witness,
)
from parryscope.cli import CorpusSpec
from parryscope.numeration import (
    beta,
    beta_integers,
    coding_of_segment,
    is_admissible,
    pred_gap_letter,
    succ_gap_letter,
    t_orbit,
    validate_renyi,
    value_of,
)
from parryscope.substitution import build_substitution, fixed_point_prefix
from parryscope.words import word
from primitivity_oracle import primitivity_exponent

GOLDEN = validate_renyi("11")
D2121 = validate_renyi("2121")


def criterion(num, desc):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} FAIL  {desc}")
                raise
            print(f"criterion {num:2d} PASS  {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def _corpus_tm1_or_any():
    members, _ = CorpusSpec.parse("m=2..4,digit<=2").members()
    extra = [validate_renyi(s) for s in ("21211",)]
    digits = {d.digits for d in members}
    members += [d for d in extra if d.digits not in digits]
    return members


def _corpus_tm_large():
    members, _ = CorpusSpec.parse("m=2..4,digit<=3,tm>=2").members()
    return members


@criterion(1, "golden ratio: fixed point prefix, minimal complexity, affine verdict")
def test_criterion_01_golden_ratio():
    assert fixed_point_prefix(GOLDEN, 5) == word("01001")
    prof = complexity_profile(GOLDEN, 60)
    assert prof.values == [n + 1 for n in range(1, 61)]
    cls = classify_affine(GOLDEN)
    assert cls.affine and (cls.slope, cls.intercept) == (1, 1)


@criterion(2, "golden gaps: two distances, coding equals the fixed point, beta-1 < 1")
def test_criterion_02_golden_gaps():
    letters = []
    gen = beta_integers(GOLDEN)
    y = next(gen)
    for _ in range(200):
        letters.append(succ_gap_letter(GOLDEN, y))
        y = next(gen)
        assert pred_gap_letter(GOLDEN, y) in (0, 1)
    assert set(letters) == {0, 1}
    assert tuple(letters) == coding_of_segment(GOLDEN, "", 200)
    assert tuple(letters) == fixed_point_prefix(GOLDEN, 200)
    gap = t_orbit(GOLDEN, 1)
    assert (gap - (beta(GOLDEN) - 1)).is_zero()
    assert gap.sign() == 1 and (gap - 1).sign() == -1


@criterion(3, "golden admissibility equals the no-11, no-leading-zero pattern")
def test_criterion_03_golden_admissibility():
    accepted = 0
    expected = 0
    for n in range(0, 9):
        for bits in range(2 ** n):
            s = format(bits, f"0{n}b") if n else ""
            oracle = s == "" or (s[0] == "1" and "11" not in s)
            got = is_admissible(GOLDEN, s)
            assert got == oracle, s
            accepted += got
            expected += oracle
    assert accepted == expected


@criterion(4, "last digit >= 2 forces a non-affine verdict with the zero-block witness")
def test_criterion_04_large_last_digit():
    members = _corpus_tm_large()
    assert len(members) >= 10
    for d in members:
        cls = classify_affine(d)
        assert not cls.affine and cls.reason == "tm_not_one", d
        target = (0,) * (d.t1 + d.digits[-1] - 1)
        assert target in maximal_left_special(d, d.t1 + d.digits[-1]), d


@criterion(5, "structural verdict equals the enumeration verdict on the whole corpus")
def test_criterion_05_oracle_equivalence():
    disagreements = []
    for d in _corpus_tm1_or_any():
        cls = classify_affine(d, oracle_n=30)
        if not cls.oracle.agrees:
            disagreements.append(d.digits)
    assert not disagreements, disagreements


@criterion(6, "affine slopes: base 111 gives 2n+1, base 21211 gives 4n+1")
def test_criterion_06_affine_slopes():
    prof = complexity_profile(validate_renyi("111"), 50)
    assert prof.values == [2 * n + 1 for n in range(1, 51)]
    prof = complexity_profile(validate_renyi("21211"), 40)
    assert prof.values == [4 * n + 1 for n in range(1, 41)]


@criterion(7, "witness pipeline for 2121: exact bundle, all four conditions, w0 confirmed")
def test_criterion_07_witness_pipeline():
    b = construct_witness(D2121)
    assert b.p == word("2") and b.r == 1 and b.p_prime == ()
    assert b.q == word("1") and b.c == ()
    assert (b.h1, b.h2, b.h) == (1, 2, 1) and b.a_pad == 2
    assert b.z == word("121") and b.x1 == word("2000") and b.x2 == word("21100")
    v = verify_witness(D2121, b)
    assert v.span == 15 and v.pred_letters == (3, 2)
    assert v.succ_letter_z == 2
    # close the loop by enumeration: w0 is left special and not a prefix
    n = len(v.w0)
    lib = factor_library(D2121, n + 1)
    assert len({f[0] for f in lib.longest if f[1:n + 1] == bytes(v.w0)}) >= 2
    assert v.w0 != fixed_point_prefix(D2121, n)


@criterion(8, "zero-gap inventory matches the three structural families exactly")
def test_criterion_08_gap_inventory():
    for base in ("11", "2121", "211", "201"):
        d = validate_renyi(base)
        rep = verify_gap_inventory(d)
        assert rep.observed == expected_gap_inventory(d), base
        assert rep.ok


@criterion(9, "left-extension excess equals the complexity increment at every length")
def test_criterion_09_extension_balance():
    from parryscope.analysis import special_factors

    for base in ("11", "2121", "22"):
        d = validate_renyi(base)
        for n in range(1, 26):
            rep = special_factors(d, n)
            assert rep.delta == sum(len(e) - 1 for e in rep.left_special.values()), (base, n)


@criterion(10, "dominant-first-digit bases satisfy (m-1)n+1 <= C(n) <= mn")
def test_criterion_10_dominant_digit_bounds():
    bases = ["11", "22", "211", "201", "2112"]
    for base in bases:
        d = validate_renyi(base)
        interior = d.digits[1:-1]
        assert not interior or d.t1 > max(interior)
        prof = complexity_profile(d, 30)
        m = d.m
        assert all((m - 1) * n + 1 <= prof.c(n) <= m * n for n in range(1, 31)), base


@criterion(11, "every corpus substitution is primitive with exponent at most 2m")
def test_criterion_11_primitivity():
    corpus = _corpus_tm1_or_any() + _corpus_tm_large()
    assert corpus
    for d in corpus:
        e = primitivity_exponent(build_substitution(d))
        assert e is not None and e <= 2 * d.m, d


@criterion(12, "exact arithmetic: defining relation and radix order = value order")
def test_criterion_12_exact_arithmetic():
    b = beta(GOLDEN)
    assert (b * b - b - 1).sign() == 0
    for base in ("11", "2121"):
        d = validate_renyi(base)
        seq = []
        gen = beta_integers(d)
        while True:
            y = next(gen)
            if len(y) > 6:
                break
            seq.append(y)
        vals = [value_of(d, y) for y in seq]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert (vals[j] - vals[i]).sign() == 1


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
