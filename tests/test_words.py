"""Word substrate: shift comparisons, borders, primitive roots, the power condition.

Derived values are checked against naive reference implementations written
here with no shared machinery (direct slice comparisons, divisor scans).
"""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parryscope.errors import EmptyWordError
from parryscope.numeration import validate_renyi
from parryscope.words import (
    _lcp,
    _shifts,
    borders,
    fmt,
    primitive_root,
    satisfies_power_condition,
    word,
)

# --- naive oracles ---------------------------------------------------------


def naive_borders(w):
    return {l for l in range(1, len(w)) if w[:l] == w[-l:]}


def naive_primitive_root(w):
    n = len(w)
    for l in range(1, n + 1):
        if n % l == 0 and w[:l] * (n // l) == w:
            return w[:l], n // l
    raise AssertionError("unreachable")


def naive_power_condition(w):
    """No border at all, or an integer power with exponent >= 2."""
    if not naive_borders(w):
        return True
    return naive_primitive_root(w)[1] >= 2


# --- parsing and formatting ------------------------------------------------


def test_word_forms():
    assert word("2121") == (2, 1, 2, 1)
    assert word("2,1,2,1") == (2, 1, 2, 1)
    assert word(" 2, 1 ") == word(" 21 ") == (2, 1)
    assert word("") == ()
    assert word([0, 10, 3]) == (0, 10, 3)
    assert fmt((2, 1, 2, 1)) == "2121"
    assert fmt((0, 10, 3)) == "0,10,3"
    assert fmt(()) == ""


def _fmt_by_letters(w):
    """fmt as defined letter by letter, without the byte table."""
    w = tuple(w)
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


@given(st.one_of(st.lists(st.integers(0, 9), max_size=60),
                 st.lists(st.integers(-300, 300), max_size=8),
                 st.lists(st.integers(), max_size=8)))
@example([0, 10, 9])
@example([12, 3, 12, 1])
@example([255, 0, 256])
@example([300, 2, 300, 1])
def test_fmt_matches_letter_by_letter_definition(w):
    # a list, a tuple, bytes and a generator give the same text; bytes are
    # read as they are, and a generator is read once
    forms = [w, tuple(w), (a for a in w)]
    if all(0 <= a < 256 for a in w):
        forms.append(bytes(w))
    assert [fmt(x) for x in forms] == [_fmt_by_letters(w)] * len(forms)


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        word("abc")
    with pytest.raises(ValueError):
        word([-1, 2])
    # a letter that is not an integer is refused, not truncated
    with pytest.raises(TypeError):
        word([2.7, 1])
    with pytest.raises(TypeError):
        validate_renyi([2.7, 1])


@pytest.mark.parametrize("text", [
    "\u0662\u0661",  # Arabic-Indic digits two, one
    "\uff12\uff11",  # fullwidth digits two, one
    "2_1,1",  # int() would read 2_1 as 21
    "12,",  # an empty part
    "\u00b21",  # a superscript two
], ids=["arabic-indic", "fullwidth", "underscore", "empty-part", "superscript"])
def test_word_reads_only_ascii_digits(text):
    with pytest.raises(ValueError, match="^not a digit word: ") as err:
        word(text)
    assert repr(text) in str(err.value)


# --- shift comparisons -------------------------------------------------------


def naive_lcp(a, b):
    return max(l for l in range(min(len(a), len(b)) + 1) if a[:l] == b[:l])


# random words, and powers of short words cut anywhere, whose long matches
# the Z-array reuses
SHORT_0_3 = st.lists(st.integers(0, 3), max_size=5).map(tuple)
WORDS_0_3 = st.one_of(
    st.lists(st.integers(0, 3), max_size=60).map(tuple),
    st.builds(lambda u, k, v: (u * k + v)[:60], SHORT_0_3, st.integers(0, 20), SHORT_0_3),
)


@given(WORDS_0_3, WORDS_0_3)
def test_shifts_and_lcp_match_slice_comparisons(w, v):
    assert list(_shifts(w)) == [(j, naive_lcp(w, w[j:])) for j in range(1, len(w))]
    assert _lcp(w, v) == naive_lcp(w, v)
    assert _lcp(w, w + v) == len(w)


# --- borders ----------------------------------------------------------------


def test_borders_examples():
    assert borders(word("212")) == {1}
    assert borders(word("21")) == set()
    assert borders(word("2121")) == {2}


def test_borders_empty_word():
    with pytest.raises(EmptyWordError):
        borders(())


def test_borders_exhaustive_against_naive():
    for n in range(1, 9):
        for w in product(range(3), repeat=n):
            got = borders(w)
            assert got == naive_borders(w), w
            for l in got:
                assert w[:l] == w[-l:]


# --- primitive roots ---------------------------------------------------------


def test_primitive_root_examples():
    assert primitive_root(word("2121")) == ((2, 1), 2)
    assert primitive_root(word("212")) == ((2, 1, 2), 1)
    assert primitive_root(word("111")) == ((1,), 3)


def test_primitive_root_reconstructs_and_is_primitive():
    for n in range(1, 9):
        for w in product(range(2), repeat=n):
            root, e = primitive_root(w)
            assert root * e == w
            assert naive_primitive_root(w) == (root, e)
            assert primitive_root(root)[1] == 1


# --- the power condition -----------------------------------------------------


def test_power_condition_examples():
    assert satisfies_power_condition(word("1")) is True
    assert satisfies_power_condition(word("212")) is False
    assert satisfies_power_condition(word("2121")) is True


def test_power_condition_exhaustive_against_naive():
    for n in range(1, 9):
        for w in product(range(4), repeat=n):
            assert satisfies_power_condition(w) == naive_power_condition(w), w


def test_primitive_root_and_power_condition_refuse_the_empty_word():
    for f in (primitive_root, satisfies_power_condition):
        with pytest.raises(EmptyWordError):
            f(())
