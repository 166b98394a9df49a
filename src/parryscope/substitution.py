"""The canonical substitution of a simple Parry base and its fixed point.

Letter i < m-1 maps to 0^(t_(i+1)) followed by the letter i+1; the last
letter maps to 0^(t_m).  The fixed point starting from 0 codes the gaps
between consecutive beta-integers.
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .numeration import TEXT_CAP, RenyiExpansion, _check_alphabet, _Frozen
from .numeration import fixed_point_prefix_bytes
from .words import Word, fmt


class Substitution(_Frozen):
    """Canonical substitution over the alphabet {0, ..., m-1}."""

    def __init__(self, d: RenyiExpansion, images: tuple):
        # images: tuple[Word, ...], images[a] = image of letter a
        self.__dict__.update(d=d, images=images)

    @property
    def m(self) -> int:
        return len(self.images)

    def to_json(self):
        return {
            "images": {str(a): fmt(im) for a, im in enumerate(self.images)},
            "matrix": [list(row) for row in incidence_matrix(self)],
            # every canonical substitution is primitive: t_1 >= 1 puts 0 and 1
            # in phi(0), phi(k) holds k + 1, and phi(m-1) = 0^(t_m) is not
            # empty, so the letter graph is strongly connected with a loop at 0
            "primitive": True,
        }


def build_substitution(d: RenyiExpansion) -> Substitution:
    """The canonical substitution for the base d.  Raises BudgetExceeded,
    before any image is spelt, when the images would hold TEXT_CAP letters
    or more: every caller prints them or reads texts built from them."""
    _check_alphabet(d)
    m = d.m
    letters = sum(d.digits) + m - 1
    if letters >= TEXT_CAP:
        raise BudgetExceeded(f"the images of the substitution hold {letters} letters; "
                             f"the cap is {TEXT_CAP}")
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
