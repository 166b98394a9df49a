"""Finite words over an integer alphabet: borders, periods, the power condition.

Words are plain tuples of non-negative ints.  Tuple comparison gives exactly
the lexicographic order used throughout: position-wise, with a proper prefix
comparing smaller than any of its extensions.

Every condition the package puts on a digit word compares the word with its
own shifts, and all of them read one routine, the Z-array ``_shifts``, or
its two-word form ``_lcp``:

- the Parry condition (``numeration.RenyiExpansion``): every zero-padded
  proper suffix lies below the word;
- the power condition (``satisfies_power_condition``): t_1 ... t_(m-1) is
  borderless or a proper power, read off its least period;
- the witness factorisation w = p^r p' q p (``analysis.construct_witness``):
  the longest prefix and suffix of w with a given period.
"""

from __future__ import annotations

import operator

from .errors import EmptyWordError

Word = tuple  # tuple[int, ...]


def word(spec) -> Word:
    """Coerce ``spec`` to a word.

    Accepts compact digit strings ("2121", every digit one character),
    comma-separated strings ("2,1,2,1"), and iterables of ints.  In a string
    every digit, or every comma-separated part once stripped of spaces, is
    ASCII 0-9; anything else raises ValueError.  Each letter of an iterable
    is coerced with ``operator.index``, so a float raises TypeError.  The
    empty string and empty iterable give the empty word.
    """
    if isinstance(spec, str):
        s = spec.strip()
        if not s:
            return ()
        parts = [part.strip() for part in s.split(",")] if "," in s else s
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"not a digit word: {spec!r}")
        return tuple(map(int, parts))
    letters = tuple(map(operator.index, spec))
    if any(a < 0 for a in letters):
        raise ValueError(f"letters must be non-negative: {spec!r}")
    return letters


_DIGITS = bytes(range(10))
_DIGIT_TEXT = bytes.maketrans(_DIGITS, b"0123456789")


def fmt(w) -> str:
    """Text form of a word: compact when every letter fits one digit.  Bytes
    are read as they are, and any other iterable once, into a tuple."""
    if not isinstance(w, bytes):
        w = tuple(w)
    try:
        text = bytes(w)
    except (TypeError, ValueError):  # a letter outside 0..255
        pass
    else:
        if not text.translate(None, _DIGITS):  # every letter in 0..9
            return text.translate(_DIGIT_TEXT).decode()
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def _shifts(w):
    """Yield (j, z_j) for j = 1 .. |w|-1, where z_j is the length of the
    longest common prefix of w and w[j:]: the Z-array, built in one linear
    pass.  A generator, so that a caller can stop at the first shift it
    needs."""
    m = len(w)
    z = [m]
    left = right = 0  # w[left:right] == w[:right-left], right largest so far
    for j in range(1, m):
        k = min(right - j, z[j - left]) if j < right else 0
        while j + k < m and w[k] == w[j + k]:
            k += 1
        z.append(k)
        if j + k > right:
            left, right = j, j + k
        yield j, k


def _lcp(a, b) -> int:
    """Length of the longest common prefix of the words a and b."""
    n = min(len(a), len(b))
    k = 0
    while k < n and a[k] == b[k]:
        k += 1
    return k


def _period(w) -> int:
    """Least period of the non-empty word w: the first shift j at which w
    matches itself to its end, else |w|."""
    m = len(w)
    for j, k in _shifts(w):
        if j + k == m:
            return j
    return m


def borders(w) -> set:
    """All lengths 0 < l < |w| such that the length-l prefix equals the suffix.

    The full set is exposed (not just the longest border): the shortest
    border is the one that drives the witness construction.  w has the
    border m - j exactly when its shift by j matches it to the end.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("borders of the empty word are undefined")
    m = len(w)
    return {m - j for j, k in _shifts(w) if j + k == m}


def primitive_root(w):
    """Return (root, exponent) with w == root * exponent and root primitive.

    The word is a proper power exactly when its least period divides |w|.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("primitive root of the empty word is undefined")
    period = _period(w)
    if len(w) % period == 0:
        return w[:period], len(w) // period
    return w, 1


def satisfies_power_condition(w) -> bool:
    """True iff w has no border, or w is a proper integer power.

    Equivalently: every way of writing w as a rational power of a primitive
    word uses an integer exponent.  Both facts come from the least period:
    w is borderless when it is |w|, and a proper power when it divides |w|.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("power condition of the empty word is undefined")
    return len(w) % _period(w) == 0
