"""Primitivity of a substitution, kept as a test oracle.

``Substitution.to_json`` reports every canonical substitution as primitive
by a proof; this search checks that proof on the bases the tests draw.
"""

from functools import reduce
from operator import or_


def primitivity_exponent(s):
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


def is_primitive(s) -> bool:
    return primitivity_exponent(s) is not None
