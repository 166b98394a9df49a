"""Finite words over an integer alphabet: borders, periods, the power condition.

Words are plain tuples of non-negative ints.  Tuple comparison gives exactly
the lexicographic order used throughout: position-wise, with a proper prefix
comparing smaller than any of its extensions.
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


def _failure_function(w):
    """KMP failure table: pi[i] = length of the longest proper border of w[:i+1]."""
    pi = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = pi[k - 1]
        if w[i] == w[k]:
            k += 1
        pi[i] = k
    return pi


def borders(w) -> set:
    """All lengths 0 < l < |w| such that the length-l prefix equals the suffix.

    The full set is exposed (not just the longest border): the shortest
    border is the one that drives the witness construction.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("borders of the empty word are undefined")
    pi = _failure_function(w)
    out = set()
    b = pi[-1]
    while b:
        out.add(b)
        b = pi[b - 1]
    return out


def primitive_root(w):
    """Return (root, exponent) with w == root * exponent and root primitive.

    The smallest period is |w| minus the longest border; the word is a
    proper power exactly when that period divides |w|.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("primitive root of the empty word is undefined")
    pi = _failure_function(w)
    period = len(w) - pi[-1]
    if len(w) % period == 0:
        return w[:period], len(w) // period
    return w, 1


def satisfies_power_condition(w) -> bool:
    """True iff w has no border, or w is a proper integer power.

    Equivalently: every way of writing w as a rational power of a primitive
    word uses an integer exponent.  Both facts come from the longest border
    b: w is borderless when b is 0, and a proper power when its smallest
    period |w| - b divides |w|.
    """
    w = tuple(w)
    if not w:
        raise EmptyWordError("power condition of the empty word is undefined")
    b = _failure_function(w)[-1]
    return not b or len(w) % (len(w) - b) == 0
