"""Base validation, admissibility, exact Z[beta] arithmetic, beta-integers."""

import functools
import itertools
import operator
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import radix_oracle
import zbeta_oracle
from parryscope import numeration
from parryscope.cli import CorpusSpec
from parryscope.errors import (
    DigitRangeError,
    EmptyWordError,
    FractionalBudgetExceeded,
    InadmissibleInput,
    MixedBaseError,
    NonIntegerExpansionError,
    ParryViolation,
    TrailingZeroError,
    ZeroHasNoPredecessor,
)
from parryscope.numeration import (
    BetaExpansion,
    RenyiExpansion,
    ZBetaElement,
    _segment,
    beta,
    beta_integers,
    coding_of_segment,
    fixed_point_prefix_bytes,
    greedy_expand_integer,
    is_admissible,
    next_admissible,
    one,
    parry_polynomial,
    pred_gap_letter,
    quasi_greedy,
    radix_rank,
    succ_gap_letter,
    t_orbit,
    validate_renyi,
    value_of,
    zb_sign,
    zero,
)
from parryscope.words import fmt, word

GOLDEN = validate_renyi("11")
D2121 = validate_renyi("2121")

VALID_SAMPLE = ["11", "21", "22", "111", "211", "201", "2121", "21211", "3202"]


def power(x, k):
    acc = one(x.d) if isinstance(x, ZBetaElement) else None
    for _ in range(k):
        acc = acc * x
    return acc


# --- validation --------------------------------------------------------------


def test_validate_accepts_known_bases():
    for s in VALID_SAMPLE:
        d = validate_renyi(s)
        assert d.m == len(word(s))
        # the first digit dominates every digit
        assert all(t <= d.t1 for t in d.digits)


def test_validate_2121_frozen_suffix_checks():
    # the three padded suffixes all compare strictly below the word
    w = word("2121")
    assert word("1210") < w and word("2100") < w and word("1000") < w
    assert validate_renyi("2121").digits == w


def test_validate_rejections():
    with pytest.raises(ParryViolation) as exc:
        validate_renyi("12")
    assert exc.value.index == 2
    with pytest.raises(TrailingZeroError):
        validate_renyi("10")
    with pytest.raises(EmptyWordError):
        validate_renyi("")
    with pytest.raises(ParryViolation):
        validate_renyi("1")  # would denote base 1
    with pytest.raises(ParryViolation):
        validate_renyi("011")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=29), st.integers(1, 3))
def test_parry_check_matches_the_padded_definition(head, last):
    # the index raised is the first i in 2..m whose suffix, padded with i - 1
    # zeros, is not below the word, after the digit sum; no error if none
    w = (*head, last)
    want = 1 if sum(w) < 2 else next(
        (i for i in range(2, len(w) + 1) if not w[i - 1:] + (0,) * (i - 1) < w), None)
    try:
        validate_renyi(w)
        got = None
    except ParryViolation as exc:
        got = exc.index
    assert got == want, w


def test_integer_base_is_accepted():
    d = validate_renyi("2")
    assert d.m == 1 and d.max_digit == 1
    assert parry_polynomial(d) == (-2, 1)


# --- the base polynomial and the quasi-greedy expansion -----------------------


def test_parry_polynomial_examples():
    assert parry_polynomial(GOLDEN) == (-1, -1, 1)
    assert parry_polynomial(D2121) == (-1, -2, -1, -2, 1)


def test_quasi_greedy_examples():
    assert quasi_greedy(GOLDEN) == word("10")
    assert quasi_greedy(D2121) == word("2120")
    assert quasi_greedy(validate_renyi("22")) == word("21")


def test_quasi_greedy_period_sums_to_one():
    # the period word p satisfies p_1 b^(m-1) + ... + p_m = b^m - 1 exactly,
    # which is the statement that (p)^infinity evaluates to 1
    for s in VALID_SAMPLE:
        d = validate_renyi(s)
        per = quasi_greedy(d)
        assert (value_of(d, per) - (power(beta(d), d.m) - 1)).is_zero()


def test_quasi_greedy_tails_are_admissible_and_ordered():
    for s in VALID_SAMPLE:
        d = validate_renyi(s)
        per = quasi_greedy(d)
        m = d.m
        L = 4 * m
        pref = tuple(per[i % m] for i in range(L))
        # every suffix of every prefix stays strictly below the expansion of 1
        for i in range(L):
            for j in range(i + 1, L + 1):
                assert pref[i:j] < d.digits
        # shifted tails: equal at period boundaries, strictly smaller elsewhere
        for k in range(2 * m):
            tail = tuple(per[(k + i) % m] for i in range(L))
            if k % m == 0:
                assert tail == pref
            else:
                assert tail < pref


# --- admissibility -------------------------------------------------------------


def test_admissibility_golden_examples():
    assert is_admissible(GOLDEN, "101") is True
    assert is_admissible(GOLDEN, "110") is False
    assert is_admissible(GOLDEN, "") is True
    assert is_admissible(GOLDEN, "011") is False  # leading zero: not canonical


def test_admissibility_digit_range():
    with pytest.raises(DigitRangeError):
        is_admissible(GOLDEN, "20")


def test_admissibility_golden_matches_pattern_oracle():
    # canonical expansions in the golden base: no adjacent ones, no leading zero
    for n in range(0, 9):
        for bits in range(2 ** n):
            s = format(bits, f"0{n}b") if n else ""
            expect = s == "" or (s[0] == "1" and "11" not in s)
            assert is_admissible(GOLDEN, s) == expect, s


# --- exact arithmetic -----------------------------------------------------------


def test_ring_examples():
    b = beta(GOLDEN)
    assert (b * b).coords == (1, 1)  # b^2 = b + 1
    a = ZBetaElement(GOLDEN, (3, -2))
    assert (a + zero(GOLDEN)).coords == a.coords
    b4 = beta(D2121)
    assert (power(b4, 4)).coords == (1, 2, 1, 2)  # b^4 = 2b^3 + b^2 + 2b + 1


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for s in ("11", "2121"):
        d = validate_renyi(s)
        elems = [
            ZBetaElement(d, tuple(rng.randrange(-6, 7) for _ in range(d.m)))
            for _ in range(12)
        ]
        for _ in range(60):
            a, b, c = rng.sample(elems, 3)
            assert ((a * b) * c).coords == (a * (b * c)).coords
            assert (a * (b + c)).coords == (a * b + a * c).coords
            assert (a + b).coords == (b + a).coords


def test_mixed_base_rejected():
    with pytest.raises(MixedBaseError):
        beta(GOLDEN) + beta(D2121)


def test_non_integral_coordinates_are_rejected():
    # coordinates are coerced with operator.index: a float raises instead of
    # being truncated
    with pytest.raises(TypeError):
        ZBetaElement(GOLDEN, (1.7, 0.2))
    with pytest.raises(TypeError):
        one(GOLDEN) * 2.9
    assert ZBetaElement(GOLDEN, [3, -2]).coords == (3, -2)
    assert (one(D2121) * 5).coords == (5, 0, 0, 0)
    # the integer to expand is coerced the same way, also where it is its
    # own digit
    for n in (1.0, 0.0, 5.0):
        with pytest.raises(TypeError):
            greedy_expand_integer(validate_renyi("21"), n)


def test_sign_examples():
    b = beta(GOLDEN)
    assert (b - 1).sign() == 1
    assert (b * b - b - 1).sign() == 0
    assert ((b - 1) - 1).sign() == -1


def test_sign_with_reducible_base_polynomial():
    # d = 3202: x^4 - 3x^3 - 2x^2 - 2 == (x + 1)(x^3 - 4x^2 + 2x - 2), so a
    # nonzero coordinate vector can vanish exactly at beta
    d = validate_renyi("3202")
    cubic = ZBetaElement(d, (-2, 2, -4, 1))
    assert cubic.is_zero() and cubic.sign() == 0
    assert (cubic * 5).sign() == 0
    assert (cubic + 1).sign() == 1
    linear = ZBetaElement(d, (1, 1, 0, 0))  # beta + 1 > 0
    assert linear.sign() == 1 and not linear.is_zero()
    for x in (cubic, cubic * 5, cubic + 1, linear):
        _assert_exact_cofactor(x)


def _assert_exact_cofactor(x):
    """P / gcd(x, P) leaves no remainder: the gcd is primitive, and a
    primitive divisor of the monic P is monic (Gauss's lemma)."""
    P = parry_polynomial(x.d)
    assert numeration._pdivmod(P, numeration._pgcd(x.coords, P))[1] == [], x


def test_orbit_examples():
    assert t_orbit(GOLDEN, 0).coords == (1, 0)
    assert t_orbit(GOLDEN, 1).coords == (-1, 1)  # beta - 1
    for s in VALID_SAMPLE:
        d = validate_renyi(s)
        assert t_orbit(d, 0).coords == one(d).coords
        assert t_orbit(d, d.m).is_zero()


def test_orbit_values_distinct_and_inside_unit_interval():
    for s in VALID_SAMPLE:
        d = validate_renyi(s)
        orbit = [t_orbit(d, i) for i in range(d.m)]
        for i in range(1, d.m):
            assert orbit[i].sign() == 1
            assert (orbit[i] - 1).sign() == -1
        for i in range(d.m):
            for j in range(i + 1, d.m):
                assert not (orbit[i] - orbit[j]).is_zero()


# --- values and greedy expansion -------------------------------------------------


def test_value_examples():
    b = beta(GOLDEN)
    assert (value_of(GOLDEN, "101") - (b * b + 1)).is_zero()
    assert value_of(GOLDEN, "").is_zero()
    b4 = beta(D2121)
    assert (value_of(D2121, "121") - (b4 * b4 + 2 * b4 + 1)).is_zero()


def test_value_rejects_fractional():
    with pytest.raises(NonIntegerExpansionError):
        value_of(GOLDEN, BetaExpansion(word("10"), word("01")))


def test_greedy_golden_examples():
    assert str(greedy_expand_integer(GOLDEN, 1)) == "1."
    assert str(greedy_expand_integer(GOLDEN, 2)) == "10.01"
    assert str(greedy_expand_integer(GOLDEN, 3)) == "100.01"
    assert str(greedy_expand_integer(GOLDEN, 0)) == "0."


def test_greedy_digits_evaluate_back_exactly():
    # x_k ... x_0 . x_-1 ... x_-f evaluates to n after clearing beta^f
    rng = random.Random(3)
    for s in ("11", "2121", "22"):
        d = validate_renyi(s)
        for _ in range(6):
            n = rng.randrange(1, 30)
            try:
                e = greedy_expand_integer(d, n)
            except FractionalBudgetExceeded:
                continue
            f = len(e.fractional_digits)
            lhs = value_of(d, e.integer_digits + e.fractional_digits)
            assert (lhs - power(beta(d), f) * n).is_zero()
            assert is_admissible(d, e.integer_digits)


def test_greedy_budget_exceeded_carries_partial():
    with pytest.raises(FractionalBudgetExceeded) as exc:
        greedy_expand_integer(D2121, 29)
    partial = exc.value.partial
    assert partial.integer_digits and len(partial.fractional_digits) == 4 * D2121.m


# --- enumeration and gaps ---------------------------------------------------------


def test_next_admissible_golden_chain():
    assert next_admissible(GOLDEN, "1") == word("10")
    assert next_admissible(GOLDEN, "100") == word("101")
    assert next_admissible(GOLDEN, "101") == word("1000")
    assert next_admissible(GOLDEN, "") == word("1")


def test_next_admissible_rejects_inadmissible():
    with pytest.raises(InadmissibleInput):
        next_admissible(GOLDEN, "11")


def test_gap_letters_examples():
    assert succ_gap_letter(GOLDEN, "1") == 1
    assert succ_gap_letter(GOLDEN, "") == 0
    assert succ_gap_letter(D2121, "121") == 2
    assert radix_oracle.succ_match_length(D2121, "121") == 2
    assert pred_gap_letter(GOLDEN, "10") == 1
    assert pred_gap_letter(D2121, "2000") == 3
    assert pred_gap_letter(D2121, "21100") == 2
    with pytest.raises(ZeroHasNoPredecessor):
        pred_gap_letter(GOLDEN, "")


def test_coding_examples():
    assert coding_of_segment(GOLDEN, "", 5) == word("01001")
    assert coding_of_segment(GOLDEN, "", 0) == ()
    # translation invariance of the coding over a witness segment
    assert coding_of_segment(D2121, "2000", 15) == coding_of_segment(D2121, "", 15)


def test_radix_rank():
    assert radix_rank(D2121, "121") == 15
    assert radix_rank(GOLDEN, "") == 0
    assert radix_rank(GOLDEN, "101") == 4


def test_pred_gap_matches_value_difference():
    # y - pred(y) == T^(pred letter)(1), exactly, along the enumeration
    for s in ("11", "2121"):
        d = validate_renyi(s)
        gen = beta_integers(d)
        prev = next(gen)
        for _ in range(40):
            y = next(gen)
            gap = value_of(d, y) - value_of(d, prev)
            assert (gap - t_orbit(d, pred_gap_letter(d, y))).is_zero()
            prev = y


def test_succ_gap_matches_value_difference():
    for s in ("11", "2121"):
        d = validate_renyi(s)
        gen = beta_integers(d)
        prev = next(gen)
        for _ in range(40):
            y = next(gen)
            gap = value_of(d, y) - value_of(d, prev)
            assert (gap - t_orbit(d, succ_gap_letter(d, prev))).is_zero()
            prev = y


def test_radix_order_is_value_order():
    # consecutive strict increase settles every pair by transitivity
    for s, bound in (("11", 8), ("2121", 5)):
        d = validate_renyi(s)
        seq = []
        gen = beta_integers(d)
        while True:
            y = next(gen)
            if len(y) > bound:
                break
            seq.append(y)
        vals = [value_of(d, y) for y in seq]
        assert all((vals[i + 1] - vals[i]).sign() == 1 for i in range(len(vals) - 1))
    # and literally all pairs on the golden sample
    d = GOLDEN
    seq = [y for y in _admissible_up_to(d, 6)]
    vals = [value_of(d, y) for y in seq]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert (vals[j] - vals[i]).sign() == 1


def _admissible_up_to(d, bound):
    gen = beta_integers(d)
    while True:
        y = next(gen)
        if len(y) > bound:
            return
        yield y


def test_gap_coding_is_the_substitution_fixed_point():
    # the gap letters of Z_beta+, read from 0, spell out the fixed point
    from parryscope.substitution import fixed_point_prefix

    assert coding_of_segment(GOLDEN, "", 10_000) == fixed_point_prefix(GOLDEN, 10_000)
    assert coding_of_segment(D2121, "", 2_000) == fixed_point_prefix(D2121, 2_000)


def test_distinct_strings_have_distinct_values():
    # greedy uniqueness on a small exhaustive range
    for s in ("11", "2121"):
        d = validate_renyi(s)
        seen = list(_admissible_up_to(d, 4))
        vals = [value_of(d, y) for y in seen]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert not (vals[i] - vals[j]).is_zero()


# --- the Parry automaton against the reference definitions -----------------------

AUTOMATON_BASES = CorpusSpec.parse("m=2..4,digit<=3").members()[0]


@functools.cache
def _reference_walk(d, steps):
    """The first ``steps`` beta-integers from 0, by the candidate-retry
    successor; the i-th has rank i by the definition of rank."""
    ys = [()]
    for _ in range(steps - 1):
        ys.append(radix_oracle.next_admissible(d, ys[-1]))
    return ys


@pytest.mark.parametrize("d", AUTOMATON_BASES, ids=lambda d: fmt(d.digits))
def test_automaton_matches_reference_on_short_strings(d):
    # every string of length <= 6: admissibility, successor and gap letter
    for n in range(7):
        for s in itertools.product(range(d.max_digit + 1), repeat=n):
            ok = radix_oracle.is_admissible(d, s)
            assert is_admissible(d, s) == ok, s
            if ok:
                assert succ_gap_letter(d, s) == radix_oracle.succ_match_length(d, s) % d.m, s
                assert next_admissible(d, s) == radix_oracle.next_admissible(d, s), s
            else:
                with pytest.raises(InadmissibleInput):
                    next_admissible(d, s)


@pytest.mark.parametrize("d", AUTOMATON_BASES, ids=lambda d: fmt(d.digits))
def test_rank_round_trips_through_successor(d):
    ys = _reference_walk(d, 401)
    for i in range(400):
        assert radix_rank(d, ys[i]) == i
        assert next_admissible(d, ys[i]) == ys[i + 1]
    for i in (0, 1, 57, 399):
        assert radix_oracle.radix_rank(d, ys[i]) == i


@pytest.mark.parametrize("d", AUTOMATON_BASES, ids=lambda d: fmt(d.digits))
def test_coding_from_zero_is_the_fixed_point(d):
    from parryscope.substitution import fixed_point_prefix

    u = fixed_point_prefix(d, 3000)
    for n in (0, 1, 17, 3000):
        assert coding_of_segment(d, (), n) == u[:n]


def _walk(d, start, count):
    """``_segment`` with its runs joined into letters: the shape of
    ``radix_oracle.segment``."""
    runs, end, state = _segment(d, start, count)
    return tuple(a for part in numeration._spell(d, runs) for a in part), end, state


@pytest.mark.parametrize("d", AUTOMATON_BASES, ids=lambda d: fmt(d.digits))
def test_segment_walk_matches_repeated_successor(d):
    ys = _reference_walk(d, 401)
    letters = [radix_oracle.succ_match_length(d, y) % d.m for y in ys]
    for i in range(0, 300, 23):
        for count in (0, 1, 2, 9, 100):
            assert _walk(d, ys[i], count)[:2] == (tuple(letters[i:i + count]), ys[i + count])


@st.composite
def _walk_starts(draw):
    """A base of AUTOMATON_BASES, an admissible start of length <= 25 drawn
    digit by digit under the period bound of the automaton state, then a
    run of trailing zeros, and a count of gaps."""
    d = draw(st.sampled_from(AUTOMATON_BASES))
    per = quasi_greedy(d)
    y, k = [], 0
    for _ in range(draw(st.integers(0, 12))):
        a = draw(st.integers(0 if y else 1, per[k]))
        y.append(a)
        k = (k + 1) % d.m if a == per[k] else 0
    if y:  # zero is the empty word
        y += [0] * draw(st.integers(0, 25 - len(y)))
    return d, tuple(y), draw(st.integers(0, 5000))


@given(_walk_starts())
@settings(max_examples=300, deadline=None)
def test_block_walk_matches_gap_by_gap_walk(case):
    d, start, count = case
    assert _walk(d, start, count) == radix_oracle.segment(d, start, count)


def test_block_walk_matches_gap_by_gap_walk_on_witness_points():
    from parryscope.analysis import construct_witness

    bases = CorpusSpec.parse("m=2..7,digit<=3,tm=1,nonpower").members()[0]
    assert len(bases) == 279
    for d in bases:
        b = construct_witness(d)
        span = radix_rank(d, b.z)
        for x in (b.x1, b.x2):
            assert _walk(d, x, span) == radix_oracle.segment(d, x, span), fmt(d.digits)


@pytest.mark.parametrize("base, start", [("2", "1"), ("3", "2100"), ("9", "80000"),
                                         ("2" + "1" * 255, "2"), ("1" + "0" * 254 + "1", "1")],
                         ids=["2", "3", "9", "2-1^255", "1-0^254-1"])
def test_walks_outside_the_byte_alphabet_match_gap_by_gap_walk(base, start):
    # one letter takes blocks with no letter beyond 0; more than 255 letters
    # take blocks of runs at most 255 zeros deep, whose letters fit bytes
    d = validate_renyi(base)
    start = word(start) + (0,) * 300
    for count in (0, 1, 2, 3, 10, 700):
        assert _walk(d, start, count) == radix_oracle.segment(d, start, count), count


@pytest.mark.parametrize("base, start", [("1000,1", "1,0,0,0"), ("100,1", "1,0,0,0,0")])
def test_block_walk_builds_nothing_longer_than_the_gaps_left(base, start):
    # phi^(i+1)(0) of these zero runs has 10^8 letters or more, far above the
    # count: the walk must learn that from U_(i+1) without building it
    d, start = validate_renyi(base), word(start)
    tracemalloc.start()
    try:
        walk = _walk(d, start, numeration.TEXT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * numeration.TEXT_CAP
    assert walk == radix_oracle.segment(d, start, numeration.TEXT_CAP)


@pytest.mark.parametrize("zeros", [253, 100])
def test_prefix_keeps_only_the_longest_block(zeros):
    # the prefix of 2^20 letters of 1 0^z 1 is made of hundreds of blocks
    # phi^j(0); each is a prefix of the next, so holding them all would cost
    # far more than the prefix itself
    d = validate_renyi("1," + "0," * zeros + "1")
    tracemalloc.start()
    try:
        prefix = fixed_point_prefix_bytes(d, numeration.TEXT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    assert prefix[:4000] == bytes(radix_oracle.segment(d, (), 4000)[0])
    # a word that starts with 0 and begins its own image is a prefix of the
    # fixed point
    images = [b"\0\1"] + [bytes([a + 1]) for a in range(1, d.m - 1)] + [b"\0"]
    assert b"".join(map(images.__getitem__, prefix)).startswith(prefix)


@pytest.fixture
def advance_calls(monkeypatch):
    calls = []
    advance = numeration._advance
    monkeypatch.setattr(numeration, "_advance", lambda *a: calls.append(1) or advance(*a))
    return calls


def test_block_walk_takes_few_steps_per_digit(advance_calls):
    # one automaton pass per point landed on, a few per digit of the end
    for d in AUTOMATON_BASES:
        advance_calls.clear()
        end = _segment(d, (), 10**5)[1]
        assert len(advance_calls) < 4 * (d.t1 + 1) * (len(end) + 1), fmt(d.digits)
    for base in ("11", "2121", "3312331", "222222121"):
        advance_calls.clear()
        _segment(validate_renyi(base), (), 10**6)
        assert len(advance_calls) < 200, base


def test_walk_reads_blocks_past_255_zeros_deep_on_a_narrow_alphabet(advance_calls):
    # the letters of 1,0,0,0,1 fit bytes at any depth, so a walk of 10^40
    # gaps takes blocks phi^i(0) with i > 255, a few steps per digit of its
    # end, and merges equal neighbouring runs
    d = validate_renyi("10001")
    for start in ((), word("1") + (0,) * 300):
        advance_calls.clear()
        runs, end, state = _segment(d, start, 10**40)
        assert radix_rank(d, end) == radix_rank(d, start) + 10**40
        assert state == numeration._rank_state(d, end)[1]
        assert max(k for k, _ in runs) > 255
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert len(advance_calls) < 4 * (len(end) + 1)


def test_segment_rejects_inadmissible_start():
    with pytest.raises(InadmissibleInput):
        _segment(GOLDEN, "11", 3)
    with pytest.raises(InadmissibleInput):  # even when no gap is read
        _segment(GOLDEN, "11", 0)


# --- the exact-sign engine against the reference engine ---------------------------

SIGN_BASES = AUTOMATON_BASES  # includes the reducible base 3202
COORD = st.integers(-(10**6), 10**6)
SIGN_SETTINGS = settings(max_examples=150, deadline=None)


def _vanishing_cofactors(d):
    """P / (x - r) for every integer root r of the base polynomial P: each
    vanishes at beta (the base is never an integer for m >= 2), though its
    coordinates are nonzero."""
    P = parry_polynomial(d)
    t_m = d.digits[-1]
    for r in {s * k for k in range(1, t_m + 1) if t_m % k == 0 for s in (1, -1)}:
        q = [0] * (len(P) - 1)
        acc = 0
        for i in range(len(P) - 1, 0, -1):
            acc = acc * r + P[i]
            q[i - 1] = acc
        if acc * r + P[0] == 0:
            yield ZBetaElement(d, q)


def _element(data, d):
    return ZBetaElement(d, data.draw(st.lists(COORD, min_size=d.m, max_size=d.m)))


def _admissible_word(data, d):
    """A random admissible string, drawn digit by digit through the automaton."""
    per = quasi_greedy(d)
    n = data.draw(st.integers(1, 14))
    y, k = [], 0
    for i in range(n):
        a = data.draw(st.integers(1 if i == 0 else 0, per[k]))
        k = (k + 1) % d.m if a == per[k] else 0
        y.append(a)
    return tuple(y)


def _agrees_with_reference(x):
    s = zb_sign(x)
    assert s == zbeta_oracle.zb_sign(x), x
    assert x.is_zero() == (s == 0) == zbeta_oracle._value_is_zero(x), x
    return s


def test_sign_bases_include_a_reducible_base():
    d = validate_renyi("3202")
    assert d in SIGN_BASES and list(_vanishing_cofactors(d))


@SIGN_SETTINGS
@given(st.sampled_from(SIGN_BASES), st.data())
def test_sign_matches_reference_on_random_elements(d, data):
    _agrees_with_reference(_element(data, d))


@SIGN_SETTINGS
@given(st.sampled_from(SIGN_BASES), st.data())
def test_sign_matches_reference_on_exact_zeros(d, data):
    r = _element(data, d)
    zeros = [t_orbit(d, d.m) * r, *(z * r for z in _vanishing_cofactors(d))]
    if d.digits == (3, 2, 0, 2):
        zeros.append(ZBetaElement(d, (-2, 2, -4, 1)) * r)
    for z in zeros:
        assert _agrees_with_reference(z) == 0
        assert _agrees_with_reference(z + 1) == 1
        _assert_exact_cofactor(z)
        _assert_exact_cofactor(z + 1)
        assert _agrees_with_reference(z - beta(d)) == -1


@SIGN_SETTINGS
@given(st.sampled_from(SIGN_BASES), st.data())
def test_sign_matches_reference_on_neighbour_differences(d, data):
    # the gap between two beta-integers of large value is T^k(1) for exactly
    # one k < m; on a reducible base the zero difference may keep nonzero
    # coordinates
    y = _admissible_word(data, d)
    gap = value_of(d, next_admissible(d, y)) - value_of(d, y)
    assert _agrees_with_reference(gap) == 1
    signs = [_agrees_with_reference(gap - t_orbit(d, k)) for k in range(d.m)]
    assert signs.count(0) == 1 and signs.index(0) == succ_gap_letter(d, y)


@SIGN_SETTINGS
@given(st.sampled_from([d for d in SIGN_BASES if d.digits[-1] == 1]), st.integers(1, 90),
       st.data())
def test_sign_matches_reference_on_tiny_values(d, n, data):
    # for t_m = 1 beta is a unit, with inverse beta^(m-1) - t_1 beta^(m-2) -
    # ... - t_(m-1); its powers have values far below 2^-64 and large
    # coordinates
    inverse = ZBetaElement(d, tuple(-t for t in reversed(d.digits[:-1])) + (1,))
    assert (inverse * beta(d) - 1).is_zero()
    tiny = one(d)
    for _ in range(n):
        tiny = tiny * inverse
    _agrees_with_reference(tiny * _element(data, d))
    assert _agrees_with_reference(tiny - tiny * inverse) == 1


@SIGN_SETTINGS
@given(st.sampled_from(SIGN_BASES), st.data(), st.integers(-50, 50))
def test_mixed_int_arithmetic_matches_reference(d, data, k):
    # negation and the reflected operators with an int, coordinate by
    # coordinate and in sign; any other operand is refused
    a = _element(data, d)
    kk = (k,) + (0,) * (d.m - 1)
    assert (-a).coords == tuple(-c for c in a.coords)
    assert (k - a).coords == tuple(x - y for x, y in zip(kk, a.coords))
    assert (a - k).coords == tuple(y - x for x, y in zip(kk, a.coords))
    assert (k + a).coords == tuple(x + y for x, y in zip(kk, a.coords))
    assert (k * a).coords == tuple(k * c for c in a.coords)
    s = _agrees_with_reference(a)
    assert _agrees_with_reference(-a) == -s
    assert _agrees_with_reference(k - a) == -_agrees_with_reference(a - k)
    assert _agrees_with_reference(k * a) == ((k > 0) - (k < 0)) * s
    for x, y in ((a, 1.5), (1.5, a)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, y)
    w = _admissible_word(data, d)
    assert value_of(d, BetaExpansion(w)).coords == value_of(d, w).coords == (
        _polynomial_coords(d, w))


def _brackets_beta(d):
    lo, hi, e = d._iv[0]
    assert 0 < lo < hi and e >= 0
    at_lo, at_hi = (sum(c * x**i for i, c in enumerate(parry_polynomial(d)))
                    for x in (Fraction(lo, 2**e), Fraction(hi, 2**e)))
    return at_lo < 0 < at_hi


@SIGN_SETTINGS
@given(st.lists(st.tuples(st.sampled_from(SIGN_BASES), st.lists(COORD, min_size=4, max_size=4),
                          st.one_of(st.none(), st.integers(1, 10**6))),
                min_size=1, max_size=6))
def test_isolating_interval_brackets_beta(calls):
    # after any sequence of sign calls and expansions, P(lo/2^e) < 0 < P(hi/2^e);
    # an expansion with fractional digits narrows the interval past 80 bits
    for d, coords, n in calls:
        zb_sign(ZBetaElement(d, coords[:d.m]))
        assert _brackets_beta(d)
        if n is not None:
            e = _expansion(d, n)[0]
            assert _brackets_beta(d)
            if e.fractional_digits:
                assert d._iv[0][2] >= numeration._SPARE_BITS



# --- greedy expansions against the polynomial oracle ------------------------------


def _polynomial_coords(d, s):
    """Coordinates of s_1 x^(k-1) + ... + s_k modulo the base polynomial,
    divided over the rationals by the reference engine; the base polynomial
    is monic, so the remainder is integral."""
    _, r = zbeta_oracle.divmod_poly(list(reversed(s)), parry_polynomial(d))
    assert all(c.denominator == 1 for c in r)
    return tuple(int(c) for c in r) + (0,) * (d.m - len(r))


def _expansion(d, n):
    """The greedy expansion of n, and whether it is exact (terminates)."""
    try:
        return greedy_expand_integer(d, n), True
    except FractionalBudgetExceeded as exc:
        return exc.partial, False


def _check_expansion(d, n):
    """Check the greedy expansion of n against the polynomial oracle and the
    reference sign engine."""
    e, exact = _expansion(d, n)
    ints, digits = e.integer_digits, e.integer_digits + e.fractional_digits
    assert radix_oracle.is_admissible(d, ints), (n, ints)
    for s in (ints, digits):
        assert value_of(d, s).coords == _polynomial_coords(d, s), (n, s)
    # n minus the integer part lies in [0, 1)
    r = [-c for c in _polynomial_coords(d, ints)]
    r[0] += n
    assert zbeta_oracle.zb_sign(ZBetaElement(d, r)) >= 0, n
    r[0] -= 1
    assert zbeta_oracle.zb_sign(ZBetaElement(d, r)) < 0, n
    # n beta^f minus all f + |ints| digits is 0 exactly when the expansion is
    # exact, and lies in (0, 1) otherwise
    f = len(e.fractional_digits)
    r = [-c for c in _polynomial_coords(d, digits)]
    scaled = _polynomial_coords(d, (n,) + (0,) * f)
    tail = ZBetaElement(d, [a + b for a, b in zip(r, scaled)])
    assert zbeta_oracle.zb_sign(tail) == (0 if exact else 1), n
    assert zbeta_oracle.zb_sign(tail - 1) < 0, n


@pytest.mark.parametrize("d", AUTOMATON_BASES, ids=lambda d: fmt(d.digits))
def test_greedy_expansion_matches_polynomial_oracle(d):
    for n in range(61):
        _check_expansion(d, n)


# --- one refinement loop: the gcd only for values that may be zero ------------------


def test_gcd_runs_only_for_values_that_may_be_zero(monkeypatch):
    calls = []
    real = numeration._pgcd
    monkeypatch.setattr(numeration, "_pgcd", lambda a, b: calls.append(a) or real(a, b))
    d = validate_renyi("21111111")
    with pytest.raises(FractionalBudgetExceeded):
        greedy_expand_integer(d, 10**100)
    assert calls == []
    # a zero with nonzero coordinates is certified by the gcd, once
    d = validate_renyi("3202")
    z = next(_vanishing_cofactors(d))
    assert zb_sign(z) == 0 and len(calls) == 1


def test_huge_expansion_is_fast_and_exact():
    d = validate_renyi("21111111")
    start = time.perf_counter()
    with pytest.raises(FractionalBudgetExceeded):
        greedy_expand_integer(d, 10**200)
    assert time.perf_counter() - start < 2
    _check_expansion(d, 10**200)


def test_a_long_start_matches_the_polynomial_oracle():
    # 10^600 in base 11 has 2,871 integer digits: the start divides by the
    # interval of beta as many times, and every digit is checked
    _check_expansion(validate_renyi("11"), 10**600)


def test_an_integer_next_to_a_power_of_beta_starts_in_its_place(monkeypatch):
    # in base 111, beta^k + 2 Re(alpha^k) is the integer T_k = T_(k-1) +
    # T_(k-2) + T_(k-3), where |alpha|^2 = 1 / beta, so 2^e T_k / beta^k is
    # within a unit of 2^e once beta^(3k/2) > 2^(e+1).  The start is given the
    # interval [lo, lo + 1] / 2^e with lo = floor(2^e beta), by bisection
    # on the sign of P, at e = 231, where 2^e beta - lo < 0.002.  With no
    # spare bits the expansion asks for a wider interval, so it keeps this
    # one, and dividing by lo gains under a unit over the start.  Only the
    # outward rounding of each step then decides k: T_k has k + 1 integer
    # digits when it exceeds beta^k, by the reference engine, and k if not
    monkeypatch.setattr(numeration, "_SPARE_BITS", 0)
    e, lo, hi = 231, 1 << 231, 2 << 231
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**3 - (mid * mid << e) - (mid << 2 * e) < 1 << 3 * e else (lo, mid)
    trib = [3, 1, 3]
    while len(trib) <= 217:
        trib.append(sum(trib[-3:]))
    for k in range(179, 218):
        d = validate_renyi("111")
        power = _polynomial_coords(d, (1,) + (0,) * k)
        above = zbeta_oracle.zb_sign(ZBetaElement(d, power) * -1 + trib[k])
        d._iv[0] = (lo, lo + 1, e)
        expansion = _expansion(d, trib[k])[0]
        assert len(expansion.integer_digits) == k + (above > 0), k
        d._iv[0] = (lo, lo + 1, e)
        _check_expansion(d, trib[k])


def test_an_exact_last_digit_stays_inside_the_carried_enclosure(monkeypatch):
    # in base 111, 2 = beta + beta^-3 and 4 = beta^2 + beta^-1 + beta^-5 +
    # beta^-6 end exactly: at the last digit beta r is 1, which the carried
    # enclosure holds only by the slack of its upper end.  The expansion is
    # given the interval [lo, lo + 1] / 2^e with lo = floor(2^e beta), read
    # bit by bit off the sign of P, at the 43 e in 20 .. 259 where
    # 2^e beta - lo < 0.1; with no spare bits it keeps that interval.  The
    # start divides by lo, so it adds little slack, and each digit step
    # multiplies by hi = lo + 1 and rounds up.  Rounded down, the upper end
    # falls below 1 at the last digit in 7 of these 86 expansions, the exact
    # end is missed, and the digits run on to the fractional budget
    monkeypatch.setattr(numeration, "_SPARE_BITS", 0)

    def below_beta(x, s):  # x / s < beta, by the sign of s^3 P(x / s)
        return x**3 - x * x * s - x * s * s - s**3 < 0

    lo = 1
    for e in range(1, 260):
        lo = 2 * lo + below_beta(2 * lo + 1, 1 << e)
        if e < 20 or below_beta(10 * lo + 1, 10 << e):
            continue
        for n in (2, 4):
            d = validate_renyi("111")
            d._iv[0] = (lo, lo + 1, e)
            assert _expansion(d, n)[1], (e, n)
            d._iv[0] = (lo, lo + 1, e)
            _check_expansion(d, n)


def test_wide_integer_digits_are_read_off_the_enclosure(monkeypatch):
    # read off the enclosure, the digits 999 and 999999 take no sign: the one
    # sign decides the exact zero that ends the expansion, where raising a
    # digit one unit per sign takes 1,001,002 for the two integer digits alone
    calls = []
    real = numeration._sign
    monkeypatch.setattr(numeration, "_sign", lambda d, v: calls.append(1) or real(d, v))
    _check_expansion(validate_renyi("1000000,0,0,0,0,0,1"), 10**9)
    assert len(calls) == 1
    d = validate_renyi("1000,1")
    assert _expansion(d, 10**12) == _unit_steps(d, 10**12)


@pytest.mark.parametrize("base, n", [("9007199254740993,5,1", 10**40),
                                     (f"{10**160},3,1", 10**400)])
def test_a_fallback_searches_inside_the_bracket_of_the_enclosure(monkeypatch, base, n):
    # the last digit of each is an exact zero, which the enclosure leaves to
    # one multiple X of its scale: a sign decides between X - 1 and X, and the
    # expansion takes at most 3 signs, where a search galloping from 1 took 54
    # and 452
    calls = []
    real = numeration._sign
    monkeypatch.setattr(numeration, "_sign", lambda d, v: calls.append(1) or real(d, v))
    d = validate_renyi(base)
    assert _expansion(d, n)[1] and len(calls) <= 3
    monkeypatch.undo()
    _check_expansion(d, n)


# --- fractional digits from a carried enclosure ------------------------------------


@st.composite
def _parry_words(draw, max_m=40, top=5):
    """A Parry word of length 2 <= m <= max_m with digits <= top, drawn digit
    by digit: a digit is at most the one that follows each prefix the word
    still ends with.  A word the Parry condition still refuses is rejected."""
    m = draw(st.integers(2, max_m))
    w = [draw(st.integers(1, top))]
    for i in range(1, m):
        bound = min(w[i - k] for k in range(1, i + 1) if w[k:i] == w[:i - k])
        w.append(draw(st.integers(1 if i == m - 1 else 0, max(bound, 1))))
    try:
        return validate_renyi(w).digits
    except ParryViolation:
        assume(False)


def _unit_steps(d, n):
    """The greedy expansion of n, and whether it is exact, by the search of
    the reference engine that raises each digit one unit per sign."""
    ints, fractional, exact = zbeta_oracle.greedy_expansion(d, n)
    return BetaExpansion(ints, fractional), exact


@settings(max_examples=150, deadline=None)
@given(st.one_of(_parry_words(), st.integers(0, 38).map(lambda k: (1,) + (0,) * k + (1,))),
       st.one_of(st.integers(1, 60), st.integers(1, 10**6)), st.sampled_from([80, 0]))
def test_carried_enclosure_gives_the_digits_of_trial_subtraction(digits, n, spare):
    # with no spare bits the enclosure often runs too wide, so that digits
    # fall back to the exact remainder, the interval of beta is narrowed and
    # the enclosure is read again; the unit-step search of the reference
    # engine checks the digits with and without spare bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeration, "_SPARE_BITS", spare)
        fast = _expansion(validate_renyi(digits), n)
    assert fast == _unit_steps(validate_renyi(digits), n)


def _power(d, p):
    """The i with p the coordinates of beta^i."""
    return next(i for i in itertools.count() if list(p) == numeration._horner(d, (1,) + (0,) * i))


def _reads_and_signs(mp):
    """Record the exponent i of the divisor beta^i of every enclosure read
    and count the exact signs."""
    reads, signs = [], []
    carried, sign = numeration._carried, numeration._sign
    mp.setattr(numeration, "_carried",
               lambda d, v, p: reads.append(_power(d, p)) or carried(d, v, p))
    mp.setattr(numeration, "_sign", lambda d, v: signs.append(1) or sign(d, v))
    return reads, signs


def test_an_undecided_digit_falls_back_and_the_enclosure_is_read_again(monkeypatch):
    # with no spare bits, the enclosure of 29 / beta^4 in base 2121 runs too
    # wide for one fractional digit: it holds one integer, and one sign
    # against it decides the digit; the enclosure is read again off the exact
    # remainder, divided by beta^0
    monkeypatch.setattr(numeration, "_SPARE_BITS", 0)
    reads, signs = _reads_and_signs(monkeypatch)
    e, exact = _expansion(validate_renyi("2121"), 29)
    assert (str(e), exact) == ("1102.0020120001020121", False)
    assert reads == [0] and len(signs) == 1


def test_a_wide_enclosure_is_narrowed_and_read_again(monkeypatch):
    # with no spare bits, the enclosure of beta r at the first fractional
    # digit of 15 in base 2121 holds two integers: the interval of beta is
    # narrowed once and the enclosure read again off the exact remainder
    # (divided by beta^0, as at every fractional digit), which puts beta r
    # between 1 and 2, so the digit 1 takes no sign.  With no sign, both
    # narrowings are made by the expansion itself: the first sizes the
    # interval, the second is the narrowing loop
    monkeypatch.setattr(numeration, "_SPARE_BITS", 0)
    reads, signs = _reads_and_signs(monkeypatch)
    narrows, narrow = [], numeration._narrow
    monkeypatch.setattr(numeration, "_narrow",
                        lambda d, extra: narrows.append(1) or narrow(d, extra))
    d = validate_renyi("2121")
    e, exact = _expansion(d, 15)
    assert (str(e), exact) == ("200.1011121121101011", False)
    assert len(narrows) == 2 and reads == [0, 0] and signs == []
    monkeypatch.undo()
    assert (e, exact) == _unit_steps(d, 15)


def test_an_integer_digit_falls_back_and_the_enclosure_is_read_again(monkeypatch):
    # with no spare bits, beta r at the third digit of 65 in base 11 is
    # 1.004, too near an integer: the two digits above it are folded into the
    # exact remainder, one sign against beta^6 = 8 beta + 5 decides the digit,
    # and the enclosure is read again off the remainder divided by beta^6.  It
    # then gives every digit up to the exact zero that ends the expansion,
    # which takes the second sign
    monkeypatch.setattr(numeration, "_SPARE_BITS", 0)
    reads, signs = _reads_and_signs(monkeypatch)
    e, exact = _expansion(validate_renyi("11"), 65)
    assert (str(e), exact) == ("101000000.00000101", True)
    assert reads == [6] and len(signs) == 2
    assert (e, exact) == _unit_steps(validate_renyi("11"), 65)
    _check_expansion(validate_renyi("11"), 65)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIGN_BASES), st.data(), st.integers(0, 40))
def test_carried_bounds_enclose_a_value_divided_by_a_power_of_beta(d, data, k):
    # a <= 2^e v(beta) / beta^k <= b by exact signs of the reference engine;
    # a constant v is enclosed exactly, so there only the division widens
    numeration._narrow(d, 40)
    p = value_of(d, (1,) + (0,) * k)
    for v in (one(d) * data.draw(st.integers(1, 10**12)),
              value_of(d, _admissible_word(data, d))):
        a, b, lo, hi, e = numeration._carried(d, list(v.coords), list(p.coords))
        scaled = v * (1 << e)
        assert zbeta_oracle.zb_sign(scaled - p * a) >= 0
        assert zbeta_oracle.zb_sign(p * b - scaled) >= 0


def test_the_enclosure_decides_every_digit_of_an_endless_expansion(monkeypatch):
    # 29 in base 2121 has no finite expansion: the enclosure of 29 / beta^4
    # gives all four integer digits and all sixteen fractional ones, with no
    # read after the start
    reads, signs = _reads_and_signs(monkeypatch)
    e, exact = _expansion(validate_renyi("2121"), 29)
    assert (str(e), exact) == ("1102.0020120001020121", False)
    assert reads == [] and signs == []


@pytest.mark.parametrize("base, n", [("11", 7), ("2121", 10), ("1000000,0,0,0,0,0,1", 10**9)])
def test_a_fallback_recomputes_its_remainder_in_one_horner_pass(monkeypatch, base, n):
    # the exact zero that ends each expansion is its one fallback, at a
    # fractional digit, decided by one sign: the remainder is one Horner pass
    # over the digits taken, negated, with n at the place of beta^0, and the
    # place value beta^0 = 1 is the other; nothing is kept from the digits
    # before it
    signs, passes = [], []
    sign, horner = numeration._sign, numeration._horner
    monkeypatch.setattr(numeration, "_sign", lambda d, v: signs.append(1) or sign(d, v))
    monkeypatch.setattr(numeration, "_horner",
                        lambda d, w: passes.append(tuple(w)) or horner(d, w))
    d = validate_renyi(base)
    e, exact = _expansion(d, n)
    assert exact and len(signs) == 1 and len(passes) == 2
    taken = e.integer_digits + e.fractional_digits[:-1]
    want = [-x for x in taken] + [0]
    want[len(e.integer_digits) - 1] += n
    assert passes == [tuple(want), (1,)]
    monkeypatch.undo()
    _check_expansion(d, n)


def test_each_small_expansion_narrows_once_and_signs_only_its_exact_zero(monkeypatch):
    # the census behind the docstring of greedy_expand_integer: over the 77
    # bases of m=2..5,digit<=2 and n = 1..60, an n above the largest digit
    # narrows the interval of beta once and makes one sign if and only if
    # its expansion is exact (1,599 of the 4,620 do), at the zero that ends it
    signs, narrows = [], []
    sign, narrow = numeration._sign, numeration._narrow
    monkeypatch.setattr(numeration, "_sign", lambda d, v: signs.append(1) or sign(d, v))
    monkeypatch.setattr(numeration, "_narrow",
                        lambda d, extra: narrows.append(1) or narrow(d, extra))
    bases = CorpusSpec.parse("m=2..5,digit<=2").members()[0]
    assert len(bases) == 77
    signed = 0
    for d in bases:
        for n in range(1, 61):
            signs.clear()
            narrows.clear()
            exact = _expansion(d, n)[1]
            want = (int(exact), 1) if n > d.max_digit else (0, 0)
            assert (len(signs), len(narrows)) == want, (d.digits, n)
            signed += len(signs)
    assert signed == 1599


@pytest.mark.parametrize("base, n", [("1000,1", 7), ("1000,1", 1000), ("11", 1), ("21", 2),
                                     ("2", 1)])
def test_an_integer_below_beta_is_its_own_digit_without_narrowing(monkeypatch, base, n):
    narrowed = []
    monkeypatch.setattr(numeration, "_narrow", lambda d, extra: narrowed.append(1))
    assert _expansion(validate_renyi(base), n) == (BetaExpansion((n,)), True)
    assert narrowed == []


@settings(max_examples=25, deadline=None)
@given(_parry_words(5, 1000), st.one_of(st.integers(1, 60), st.integers(1, 10**9)))
def test_greedy_expansion_matches_unit_step_search(digits, n):
    # digits, exactness and the 4m budget against a search that raises each
    # digit one unit per sign of the reference engine
    d = validate_renyi(digits)
    e, exact = _expansion(d, n)
    assert (e.integer_digits, e.fractional_digits, exact) == zbeta_oracle.greedy_expansion(d, n)
    assert exact or len(e.fractional_digits) == 4 * d.m


@pytest.mark.parametrize("base, n, expansion", [
    ("11", 2, "10.01"), ("211", 7, "100.102"), ("2121", 7, "21.11121021"),
    ("3202", 13, "100.0021011202"), ("2101001", 25, "1111.011020000111010100001101001"),
    ("3333332", 31, "133.000100200023220002112000132"), ("2", 12, "1100."), ("3", 18, "200.")])
def test_terminating_expansions_stay_exact(base, n, expansion):
    # each ends on an exact zero, which only trial subtraction decides; in an
    # integer base it can fall inside the integer part, and zeros fill the rest
    e, exact = _expansion(validate_renyi(base), n)
    assert (str(e), exact) == (expansion, True)
    _check_expansion(validate_renyi(base), n)


def _beyond_float_range(d):
    raise OverflowError("t_1 is beyond float range")


@pytest.mark.parametrize("guess", [
    pytest.param(lambda d: d.t1 + 0.999, id="wrong-in-range"),
    pytest.param(lambda d: -1.5, id="negative"),
    pytest.param(lambda d: float("nan"), id="nan"),
    pytest.param(_beyond_float_range, id="raises")])
@pytest.mark.parametrize("base, n", [("11", 1000), ("2121", 29), ("3202", 13), ("21111111", 10**6)])
def test_a_bad_float_guess_is_refused_and_bisection_gives_the_digits(monkeypatch, guess, base, n):
    # a guess that raises, is nan or out of range, or whose Newton steps run
    # out before they settle, gives way to Newton's method from t_1 + 1: the
    # narrowing still certifies an interval a few units wide, and the digits
    # are those of the unit-step search
    want = _unit_steps(validate_renyi(base), n)
    monkeypatch.setattr(numeration, "_beta_estimate", guess)
    d = validate_renyi(base)
    numeration._narrow(d, 0)
    lo, hi, e = d._iv[0]
    assert _brackets_beta(d) and hi - lo <= 8 and e >= numeration._SPARE_BITS
    assert _expansion(d, n) == want and _brackets_beta(d)


def test_narrowing_is_certified_and_never_widens(monkeypatch):
    d = validate_renyi("2121")
    numeration._narrow(d, 0)
    assert _brackets_beta(d)
    lo, hi, e = d._iv[0]
    assert hi - lo == 4 and e >= numeration._SPARE_BITS
    # a coarser request keeps the finer interval
    numeration._narrow(d, -40)
    assert d._iv[0] == (lo, hi, e)
    # Newton's steps at half length stop far from beta, and the certificate
    # then widens, here about 2^40-fold, until it holds; the digits do not
    # change
    real = numeration._parry_at

    def half_steps(d, x, e):
        v, dv = real(d, x, e)
        return v, 2 * dv

    monkeypatch.setattr(numeration, "_parry_at", half_steps)
    d = validate_renyi("2121")
    numeration._narrow(d, 0)
    lo, hi, e = d._iv[0]
    assert _brackets_beta(d) and hi - lo > 1 << 30 and (hi - lo) << 40 < 1 << e
    assert _expansion(d, 29) == _unit_steps(validate_renyi("2121"), 29)


@pytest.mark.parametrize("base", ["100000000000000001,1", "9007199254740993,5,1"])
def test_a_first_digit_beyond_float_precision_is_narrowed_from_above(base):
    # the float guess rounds below t_1, so Newton's method starts from t_1 + 1
    d = validate_renyi(base)
    numeration._narrow(d, 40)
    lo, hi, e = d._iv[0]
    assert _brackets_beta(d) and hi - lo <= 8 and e >= numeration._SPARE_BITS + 40
    for n in (10**6, 10**30, 10**60):
        _check_expansion(d, n)
        e = _expansion(d, n)[0]
        assert radix_oracle.is_admissible(d, e.integer_digits + e.fractional_digits)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.one_of(st.integers(0, 10**6), st.integers(0, 10**100)))
def test_integer_base_expansions_are_the_radix_digits(t, n):
    # beta = t_1, so the digits are those of n in radix t_1, and no sign is
    # taken: the one string of digits below t_1, led by a nonzero digit, that
    # sums to n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeration, "_sign", lambda d, v: pytest.fail("an integer base took a sign"))
        e, exact = _expansion(validate_renyi([t]), n)
    digits = e.integer_digits
    assert exact and e.fractional_digits == () and all(0 <= x < t for x in digits)
    assert digits[:1] != (0,) and functools.reduce(lambda a, x: a * t + x, digits, 0) == n


def test_an_exact_zero_on_a_fresh_base_takes_at_most_two_narrowings(monkeypatch):
    # P(-1) = 0, so P / (x + 1) vanishes at beta: the first narrowing goes
    # past the depth of the gcd, where halving the interval one bit at a time
    # took 67 halvings
    narrowed, enclosed = [], []
    narrow, enclosure = numeration._narrow, numeration._enclosure
    monkeypatch.setattr(numeration, "_narrow",
                        lambda d, extra: narrowed.append(extra) or narrow(d, extra))
    monkeypatch.setattr(numeration, "_enclosure",
                        lambda *args: enclosed.append(1) or enclosure(*args))
    d = validate_renyi("330211001121")
    z, = _vanishing_cofactors(d)
    assert zb_sign(z) == 0
    assert len(narrowed) <= 2 and len(enclosed) <= 5


def test_a_deep_sign_continues_each_narrowing_from_the_interval_before(monkeypatch):
    # in base 2111, beta^-1 = beta^3 - 2 beta^2 - beta - 1, and T = beta^-300
    # has 178-bit coordinates; T - T beta^-1 = T (1 - beta^-1) > 0 needs about
    # 690 bits.  Each narrowing asks for twice the bits of the interval and
    # starts Newton's method from its middle, with no float guess after the
    # first: restarting from a float and adding about 100 bits a time took 5
    # narrowings, 5 float guesses and 28 passes of P
    d = validate_renyi("2111")
    b = beta(d)
    inverse = b * b * b - 2 * b * b - b - 1
    assert inverse * b == one(d)
    t = power(inverse, 300)
    assert max(map(abs, t.coords)).bit_length() == 178
    calls = []
    for name in ("_narrow", "_beta_estimate", "_parry_at"):
        real = getattr(numeration, name)
        monkeypatch.setattr(numeration, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert zb_sign(t - t * inverse) == 1
    assert calls.count("_narrow") <= 3 and calls.count("_beta_estimate") == 1
    assert calls.count("_parry_at") <= 15
    assert _brackets_beta(d)


@pytest.mark.parametrize("digits", ["330211001121", "33320222332031210203"])
def test_exact_zeros_on_long_reducible_bases(digits):
    # P(-1) = 0, so P / (x + 1) vanishes at beta with nonzero coordinates
    d = validate_renyi(digits)
    zeros = list(_vanishing_cofactors(d))
    assert zeros
    for z in zeros:
        assert _agrees_with_reference(z) == 0
        assert _agrees_with_reference(z + 1) == 1
        _assert_exact_cofactor(z)
        _assert_exact_cofactor(z + 1)


# --- guards that no valid input reaches -----------------------------------------------


def test_elements_check_their_length_and_print_their_base():
    with pytest.raises(ValueError):
        ZBetaElement(D2121, (1, 2))
    assert repr(D2121) == "RenyiExpansion('2121')"
    assert repr(beta(GOLDEN)) == "ZBetaElement('11', (0, 1))"


def test_orbit_index_outside_zero_to_m_is_refused():
    for i in (-1, GOLDEN.m + 1):
        with pytest.raises(ValueError):
            t_orbit(GOLDEN, i)
