"""Canonical substitution, fixed point prefixes, incidence data."""

import random
import time
import tracemalloc

import pytest

from gap_oracle import j_indices
from parryscope.cli import CorpusSpec
from parryscope.errors import LetterRangeError
from parryscope.numeration import TEXT_CAP, coding_of_segment, radix_rank, validate_renyi
from parryscope.substitution import (
    Substitution,
    build_substitution,
    fixed_point_prefix,
    incidence_matrix,
)
from parryscope.words import word
from primitivity_oracle import is_primitive, primitivity_exponent

GOLDEN = validate_renyi("11")
D2121 = validate_renyi("2121")


def test_build_examples():
    s = build_substitution(GOLDEN)
    assert s.images == (word("01"), word("0"))
    s4 = build_substitution(D2121)
    assert s4.images == (word("001"), word("02"), word("003"), word("0"))
    s22 = build_substitution(validate_renyi("22"))
    assert s22.images == (word("001"), word("00"))


def test_build_needs_two_letters():
    with pytest.raises(LetterRangeError):
        build_substitution(validate_renyi("2"))


def test_apply_examples():
    s = build_substitution(GOLDEN)
    assert s.apply("01") == word("010")
    assert s.apply("") == ()
    s4 = build_substitution(D2121)
    assert s4.apply(s4.apply("0")) == word("00100102")
    with pytest.raises(LetterRangeError):
        s.apply((0, 5))


def test_apply_is_a_morphism():
    rng = random.Random(13)
    for base in ("11", "2121", "211"):
        s = build_substitution(validate_renyi(base))
        for _ in range(40):
            u = tuple(rng.randrange(s.m) for _ in range(rng.randrange(8)))
            v = tuple(rng.randrange(s.m) for _ in range(rng.randrange(8)))
            assert s.apply(u + v) == s.apply(u) + s.apply(v)


def test_fixed_point_prefix_examples():
    assert fixed_point_prefix(GOLDEN, 5) == word("01001")
    assert fixed_point_prefix(GOLDEN, 0) == ()
    assert fixed_point_prefix(D2121, 8) == word("00100102")


def test_prefix_is_fixed_by_the_substitution():
    for base in ("11", "2121", "22", "201"):
        d = validate_renyi(base)
        s = build_substitution(d)
        for L in (1, 10, 64, 257):
            p = fixed_point_prefix(d, L)
            assert s.apply(p)[:L] == p


def test_prefixes_of_length_u_k_are_the_iterates():
    # phi^k(0), by applying the substitution letter by letter, is the
    # prefix of length U_k = rank(1 0^k), the count of strings of length <= k
    for d in CorpusSpec.parse("m=2..5,digit<=3").members()[0]:
        s = build_substitution(d)
        it = (0,)
        for k in range(12):
            assert len(it) == radix_rank(d, (1,) + (0,) * k), (d.digits, k)
            assert fixed_point_prefix(d, len(it)) == it, (d.digits, k)
            if len(it) > 3000:
                break
            it = s.apply(it)


def test_prefixes_of_every_length_are_prefixes_of_the_iterates():
    # lengths between the U_k take part of the last block
    for d in CorpusSpec.parse("m=2..4,digit<=3").members()[0]:
        s, it = build_substitution(d), (0,)
        while len(it) < 120:
            it = s.apply(it)
        for L in range(1, 121):
            assert fixed_point_prefix(d, L) == it[:L], (d.digits, L)


@pytest.mark.parametrize("base", ["1000,1", "100,1", "11"])
def test_prefix_builds_under_twice_its_length(base):
    # phi^3(0) of 1000,1 has about 10^9 letters; the prefix of 2^20 needs
    # only a copy of phi^2(0) and part of phi^1(0)
    d = validate_renyi(base)
    tracemalloc.start()
    try:
        prefix = fixed_point_prefix(d, TEXT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * TEXT_CAP
    # the gap coding read from 0 is the fixed point
    assert prefix == coding_of_segment(d, (), TEXT_CAP)


@pytest.mark.parametrize("base", ["2", "9", "2" + "1" * 255])
def test_prefix_needs_two_to_255_letters(base):
    with pytest.raises(LetterRangeError):
        fixed_point_prefix(validate_renyi(base), 1)
    assert fixed_point_prefix(validate_renyi(base), 0) == ()


def test_incidence_and_primitivity():
    s = build_substitution(GOLDEN)
    assert incidence_matrix(s) == ((1, 1), (1, 0))
    assert is_primitive(s)
    s4 = build_substitution(D2121)
    e = primitivity_exponent(s4)
    assert e is not None and e <= 2 * s4.m


def _matrix_power_exponent(s):
    """Smallest k <= 2m with the k-th power of the incidence matrix
    entrywise positive, by integer matrix products, else None."""
    mat = incidence_matrix(s)
    m = s.m
    power = mat
    for k in range(1, 2 * m + 1):
        if all(e > 0 for row in power for e in row):
            return k
        power = [[sum(power[i][l] * mat[l][j] for l in range(m)) for j in range(m)]
                 for i in range(m)]
    return None


def test_primitivity_exponent_matches_matrix_powers():
    members, _ = CorpusSpec.parse("m=2..5,digit<=3").members()
    assert members
    for d in members:
        s = build_substitution(d)
        assert primitivity_exponent(s) == _matrix_power_exponent(s), d.digits
        # the constant that generate prints holds by proof, and here by search
        assert is_primitive(s) and s.to_json()["primitive"] is True, d.digits
    # a permutation of the letters is never primitive
    for images in (((0,), (1,)), ((1,), (0,))):
        s = Substitution(GOLDEN, images)
        assert primitivity_exponent(s) is None and _matrix_power_exponent(s) is None


def test_primitivity_of_the_largest_alphabet_is_fast():
    s = build_substitution(validate_renyi("2" + "1" * 254))
    start = time.perf_counter()
    e = primitivity_exponent(s)
    assert time.perf_counter() - start < 2.0
    assert e == 255


def test_incidence_columns_sum_to_image_lengths():
    for base in ("11", "2121", "201", "3202"):
        s = build_substitution(validate_renyi(base))
        mat = incidence_matrix(s)
        for b in range(s.m):
            assert sum(mat[a][b] for a in range(s.m)) == len(s.images[b])


def test_abelianization_tracks_matrix_powers():
    for base in ("11", "2121"):
        d = validate_renyi(base)
        s = build_substitution(d)
        mat = incidence_matrix(s)
        counts = [1] + [0] * (s.m - 1)
        w = (0,)
        for _ in range(5):
            w = s.apply(w)
            counts = [sum(mat[a][b] * counts[b] for b in range(s.m)) for a in range(s.m)]
            assert counts == [w.count(a) for a in range(s.m)]


def test_last_letter_always_followed_by_zero():
    for base in ("11", "2121", "211", "3202"):
        d = validate_renyi(base)
        p = fixed_point_prefix(d, 4000)
        last = d.m - 1
        for i in range(len(p) - 1):
            if p[i] == last:
                assert p[i + 1] == 0


def test_j_indices_examples():
    assert j_indices(D2121) == {2: 1, 3: 1, 4: 1}
    assert j_indices(validate_renyi("201")) == {2: 1, 3: 2}
    assert j_indices(GOLDEN) == {2: 1}


def test_j_indices_need_two_letters():
    with pytest.raises(ValueError):
        j_indices(validate_renyi("2"))
