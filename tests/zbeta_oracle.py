"""Reference exact-sign engine for Z[beta], kept as a test oracle.

This is the direct definition by interval bisection: the isolating interval
of beta is held as integers (lo, hi, e), meaning [lo / 2^e, hi / 2^e], and
is halved one bit at a time; a polynomial is enclosed by exact integer
interval Horner evaluation on it, scaled by a power of 2, so no rounding and
no Fraction arises there.  When the enclosure still straddles 0 with the
interval 64 bits finer than the value and beta's powers, the polynomial gcd
with the base polynomial, over the rationals, decides whether the value is
exactly 0.  It keeps its own interval per base and its own bisection,
division and gcd, so it shares no state and no polynomial code with the
engine under test.  Its greedy expansion searches each digit one unit at a
time, one sign of this module a unit, where the engine reads digits off a
carried enclosure of beta.
"""

import math
from fractions import Fraction

from parryscope.errors import VerificationFailed
from parryscope.numeration import ZBetaElement, parry_polynomial

_IV = {}  # digits of the base -> isolating interval (lo, hi, e) of beta


def _trim(p):
    """Coefficients (constant first) without trailing zeros."""
    p = list(p)
    while p and p[-1] == 0:
        del p[-1]
    return p


def divmod_poly(a, b):
    """Quotient and remainder of a by b != 0 over the rationals, by long
    division from the leading term down."""
    r, b = _trim(map(Fraction, a)), _trim(map(Fraction, b))
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        r = _trim([x - c * b[i - shift] if i >= shift else x for i, x in enumerate(r)])
    return _trim(q), r


def _gcd(a, b):
    """Monic gcd of two polynomials over the rationals (Euclid)."""
    a, b = _trim(map(Fraction, a)), _trim(map(Fraction, b))
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return [c / a[-1] for c in a]


def _integral(p):
    """A rational polynomial times the lcm of its denominators."""
    scale = math.lcm(*(c.denominator for c in p))
    return [int(c * scale) for c in p]


def _enclose(p, lo, hi, e):
    """Integer bounds (A, B) with A / S <= p(x) <= B / S for every x in
    [lo / 2^e, hi / 2^e], 0 < lo <= hi, where p is not empty and
    S = 2^(e deg p): interval Horner evaluation, each step exact in the
    scale it has reached."""
    a = b = p[-1]
    for j, c in enumerate(reversed(p[:-1]), 1):
        a = a * (lo if a >= 0 else hi) + (c << e * j)
        b = b * (hi if b >= 0 else lo) + (c << e * j)
    return a, b


def _interval(d):
    return _IV.setdefault(d.digits, (1, d.digits[0] + 1, 0))


def _bisect(d):
    """Halve the isolating interval of beta; returns the narrowed interval."""
    lo, hi, e = _interval(d)
    mid = lo + hi
    v = _enclose(parry_polynomial(d), mid, mid, e + 1)[0]
    if v == 0:
        raise VerificationFailed("beta", "rational midpoint cannot be the base")
    iv = (mid, 2 * hi, e + 1) if v < 0 else (2 * lo, mid, e + 1)
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
    vlo, vhi = _enclose(v, *_interval(d))
    if vlo > 0 or vhi < 0:
        return False
    P = parry_polynomial(d)
    g = _gcd(v, P)
    if len(g) == 1:
        return False
    h, rem = divmod_poly(P, g)
    if rem:
        raise VerificationFailed("beta", "gcd must divide the base polynomial")
    # cleared of denominators, g and h keep their signs and their roots
    g, h = (_integral(p) for p in (g, h))
    iv = _interval(d)
    while True:
        glo, ghi = _enclose(g, *iv)
        if glo > 0 or ghi < 0:
            return False
        hlo, hhi = _enclose(h, *iv)
        if hlo > 0 or hhi < 0:
            return True
        iv = _bisect(d)


def zb_sign(a):
    """Sign (-1, 0, +1) of a(beta): bisect until the enclosure leaves 0,
    with one zero test once the interval is fine enough that a straddle
    suggests an exact zero."""
    v = _trim(a.coords)
    if not v:
        return 0
    if len(v) == 1:
        return 1 if v[0] > 0 else -1
    d = a.d
    # bits of the largest term v_i beta^i, bounded with beta < t_1 + 1
    fine = max(map(abs, v)).bit_length() + len(v) * (d.digits[0] + 1).bit_length() + 64
    tested = False
    iv = _interval(d)
    while True:
        vlo, vhi = _enclose(v, *iv)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        if not tested and iv[2] >= fine:
            if _value_is_zero(a):
                return 0
            tested = True
        iv = _bisect(d)


def _reduce(p, P):
    """p modulo the monic base polynomial P, as its m integer coordinates."""
    r, m = list(p), len(P) - 1
    while len(r) > m:
        c = r.pop()
        for i in range(m):
            r[len(r) - m + i] -= c * P[i]
    return r + [0] * (m - len(r))


def greedy_expansion(d, n):
    """Greedy expansion of n >= 1 as (integer digits, fractional digits,
    exact), with at most 4m fractional digits.  Values are coordinate
    vectors, reduced modulo the monic base polynomial by integer long
    division; each digit is raised one unit at a time while the remainder
    minus one unit of its place stays >= 0, and the expansion is exact once
    that is 0."""
    m = d.m
    P = parry_polynomial(d)

    def minus(v, u):
        return [a - b for a, b in zip(v, u)]

    powers = [_reduce([1], P)]

    def power(i):  # beta^i, each reduced from x times the one before
        while len(powers) <= i:
            powers.append(_reduce([0] + powers[-1], P))
        return powers[i]

    rem = _reduce([n], P)
    k = 0
    while zb_sign(ZBetaElement(d, minus(rem, power(k)))) >= 0:  # beta^k <= n
        k += 1
    digits, exact = [], False
    for i in range(k - 1, -4 * m - 1, -1):
        unit = power(max(i, 0))
        if i < 0:
            rem = _reduce([0] + rem, P)  # times beta
        x = 0
        while not exact and (s := zb_sign(ZBetaElement(d, minus(rem, unit)))) >= 0:
            rem, x, exact = minus(rem, unit), x + 1, s == 0
        digits.append(x)
        if exact:
            digits += [0] * i  # the rest of the integer part, if any
            break
    return tuple(digits[:k]), tuple(digits[k:]), exact
