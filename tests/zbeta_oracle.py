"""Reference exact-sign engine for Z[beta], kept as a test oracle.

This is the direct definition over the rationals: the isolating interval of
beta has Fraction end points, a polynomial is enclosed by interval Horner
evaluation, and whenever the enclosure straddles 0 the polynomial gcd with
the base polynomial decides whether the value is exactly 0.  It keeps its own
interval per base and its own rational division and gcd, so it shares no
state and no polynomial code with the engine under test.  Its greedy
expansion searches each digit one unit at a time, one sign of this module a
unit, where the engine reads digits off a carried enclosure of beta.
"""

from fractions import Fraction

from parryscope.errors import VerificationFailed
from parryscope.numeration import ZBetaElement, parry_polynomial

_IV = {}  # digits of the base -> isolating interval (lo, hi) of beta


def _trim(p):
    """Coefficients (constant first) without trailing zeros, as Fractions."""
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        del p[-1]
    return p


def divmod_poly(a, b):
    """Quotient and remainder of a by b != 0 over the rationals, by long
    division from the leading term down."""
    r, b = _trim(a), _trim(b)
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        r = _trim([x - c * b[i - shift] if i >= shift else x for i, x in enumerate(r)])
    return _trim(q), r


def _gcd(a, b):
    """Monic gcd of two polynomials over the rationals (Euclid)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return [c / a[-1] for c in a]


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _interval_eval(p, lo, hi):
    """Interval Horner evaluation of p over [lo, hi] with lo > 0."""
    alo = ahi = Fraction(p[-1]) if p else Fraction(0)
    for c in reversed(p[:-1]):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _interval(d):
    return _IV.setdefault(d.digits, (Fraction(1), Fraction(d.digits[0] + 1)))


def _bisect(d):
    """Halve the isolating interval of beta; returns the narrowed interval."""
    lo, hi = _interval(d)
    mid = (lo + hi) / 2
    v = _peval(parry_polynomial(d), mid)
    if v == 0:
        raise VerificationFailed("beta", "rational midpoint cannot be the base")
    iv = (mid, hi) if v < 0 else (lo, mid)
    _IV[d.digits] = iv
    return iv


def _value_is_zero(a):
    """a(beta) == 0: gcd with the base polynomial, then refine until exactly
    one of the two cofactors is bounded away from 0."""
    v = _trim(a.coords)
    if not v:
        return True
    if len(v) == 1:
        return False
    d = a.d
    lo, hi = _interval(d)
    vlo, vhi = _interval_eval(v, lo, hi)
    if vlo > 0 or vhi < 0:
        return False
    P = list(parry_polynomial(d))
    g = _gcd(v, P)
    if len(g) == 1:
        return False
    h, rem = divmod_poly(P, g)
    if rem:
        raise VerificationFailed("beta", "gcd must divide the base polynomial")
    while True:
        glo, ghi = _interval_eval(g, lo, hi)
        if glo > 0 or ghi < 0:
            return False
        hlo, hhi = _interval_eval(h, lo, hi)
        if hlo > 0 or hhi < 0:
            return True
        lo, hi = _bisect(d)


def zb_sign(a):
    """Sign (-1, 0, +1) of a(beta): interval test, zero test, then bisection."""
    v = _trim(a.coords)
    if not v:
        return 0
    if len(v) == 1:
        return 1 if v[0] > 0 else -1
    d = a.d
    vlo, vhi = _interval_eval(v, *_interval(d))
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    if _value_is_zero(a):
        return 0
    while True:
        vlo, vhi = _interval_eval(v, *_bisect(d))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1


def greedy_expansion(d, n):
    """Greedy expansion of n >= 1 as (integer digits, fractional digits,
    exact), with at most 4m fractional digits.  Values are coordinate
    vectors, reduced modulo the base polynomial by ``divmod_poly``; each
    digit is raised one unit at a time while the remainder minus one unit of
    its place stays >= 0, and the expansion is exact once that is 0."""
    m = d.m

    def coords(poly):
        r = divmod_poly(poly, parry_polynomial(d))[1]
        return [int(c) for c in r] + [0] * (m - len(r))

    def minus(v, u):
        return [a - b for a, b in zip(v, u)]

    powers = [coords([1])]

    def power(i):  # beta^i, each reduced from x times the one before
        while len(powers) <= i:
            powers.append(coords([0] + powers[-1]))
        return powers[i]

    rem = coords([n])
    k = 0
    while zb_sign(ZBetaElement(d, minus(rem, power(k)))) >= 0:  # beta^k <= n
        k += 1
    digits, exact = [], False
    for i in range(k - 1, -4 * m - 1, -1):
        unit = power(max(i, 0))
        if i < 0:
            rem = coords([0] + rem)  # times beta
        x = 0
        while not exact and (s := zb_sign(ZBetaElement(d, minus(rem, unit)))) >= 0:
            rem, x, exact = minus(rem, unit), x + 1, s == 0
        digits.append(x)
        if exact:
            digits += [0] * i  # the rest of the integer part, if any
            break
    return tuple(digits[:k]), tuple(digits[k:]), exact
