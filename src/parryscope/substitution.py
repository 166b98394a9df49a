"""The canonical substitution of a simple Parry base and its fixed point.

Letter i < m-1 maps to 0^(t_(i+1)) followed by the letter i+1; the last
letter maps to 0^(t_m).  The fixed point starting from 0 codes the gaps
between consecutive beta-integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import LetterRangeError
from .numeration import RenyiExpansion, _check_alphabet, fixed_point_prefix_bytes
from .words import Word, fmt, word


@dataclass(frozen=True)
class Substitution:
    """Canonical substitution over the alphabet {0, ..., m-1}."""

    d: RenyiExpansion
    images: tuple  # tuple[Word, ...], images[a] = image of letter a

    @property
    def m(self) -> int:
        return len(self.images)

    def image(self, a: int) -> Word:
        if not 0 <= a < self.m:
            raise LetterRangeError(f"letter {a} outside alphabet of size {self.m}")
        return self.images[a]

    def apply(self, w) -> Word:
        """Image of a word: concatenation of letter images (a morphism)."""
        w = word(w)
        out = []
        for a in w:
            out.extend(self.image(a))
        return tuple(out)

    def to_json(self):
        return {
            "images": {str(a): fmt(im) for a, im in enumerate(self.images)},
            "matrix": [list(row) for row in incidence_matrix(self)],
            "primitive": is_primitive(self),
        }


def build_substitution(d: RenyiExpansion) -> Substitution:
    """The canonical substitution for the base d."""
    _check_alphabet(d)
    m = d.m
    images = []
    for i in range(m - 1):
        images.append((0,) * d.digits[i] + (i + 1,))
    images.append((0,) * d.digits[m - 1])
    return Substitution(d, tuple(images))


def fixed_point_prefix(d: RenyiExpansion, length: int) -> Word:
    """First ``length`` letters of the fixed point u = lim phi^n(0)."""
    return tuple(fixed_point_prefix_bytes(d, length))


def incidence_matrix(s: Substitution):
    """Entry (a, b) counts occurrences of the letter a in the image of b."""
    m = s.m
    return tuple(
        tuple(s.images[b].count(a) for b in range(m)) for a in range(m)
    )


def primitivity_exponent(s: Substitution):
    """Smallest k <= 2m with the k-th matrix power entrywise positive, else None.

    Entry (a, b) of M^k is positive exactly when a occurs in phi^k(b), so
    the powers are tracked as letter sets, one bit mask per letter: the
    letters of phi^(k+1)(b) are those of phi^k(c) over the letters c of phi(b).
    """
    full = (1 << s.m) - 1
    letters = [set(im) for im in s.images]
    masks = [sum(1 << a for a in ls) for ls in letters]
    for k in range(1, 2 * s.m + 1):
        if all(mask == full for mask in masks):
            return k
        masks = [reduce(or_, (masks[c] for c in ls)) for ls in letters]
    return None


def is_primitive(s: Substitution) -> bool:
    return primitivity_exponent(s) is not None


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
