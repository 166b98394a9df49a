"""Beta-numeration for simple Parry bases.

Everything about the base itself lives here: validation of the expansion of 1
against the Parry condition, admissibility of digit strings, the quasi-greedy
expansion, exact arithmetic in Z[beta], greedy expansion of integers, and the
successor/predecessor structure of the non-negative beta-integers.

The base beta is the largest real root of

    x^m - t_1 x^(m-1) - ... - t_m

and is never represented approximately: a float appears only as a guess
that exact integer arithmetic refines and certifies or sets aside (below),
never as a value.
Comparisons are decided exactly: an element of Z[beta] is a degree-reduced
integer polynomial in beta, and its sign at beta is read off an enclosure of
its values on the isolating interval of beta.  That interval is dyadic,
[lo/2^e, hi/2^e] with integers lo, hi, e; it is shared by every element of
the base and only ever narrowed.  Splitting a polynomial into its positive
and negative parts, both increasing for x > 0, bounds it by integer Horner
evaluations at the two end points, so no division is made; the one routine
that does this returns the bounds.  One loop decides every sign, and the
zero test asks it for sign 0: while the enclosure straddles 0 the interval
is narrowed.  The one narrowing routine refines a float guess at beta by
integer Newton steps, or, when the guess is useless, runs Newton's method
from t_1 + 1, which always converges, and widens the result until
P(lo) < 0 < P(hi), which certifies it, since P has one positive root
(Descartes).  The base polynomial P need not be irreducible, so nonzero
coordinates may still be 0 at beta; once the interval is a fixed number of
bits finer than the value's largest coordinate, the loop also encloses the
cofactor P / gcd(value, P), which leaves 0 exactly when the value is 0.
The first narrowing of a sign reaches that depth.  So the gcd runs only for
values that may be zero.  It is a primitive remainder sequence over the
integers, and the monic P divides by it exactly (Gauss's lemma), so no
rational number arises and no remainder is checked.  Refinement terminates
because an enclosure converges to the value at beta as the interval
shrinks onto it.

A greedy expansion of an integer n above the largest digit reads every
digit, integer and fractional alike, off one enclosure.  The interval is
narrowed once, to 80 + log2(n) + 4m log2(beta) bits.  With k the least
integer such that beta^k > n, certified by lo^k > n 2^(e k), r = n / beta^k
in (0, 1) carries an integer enclosure a <= 2^e r <= b through
r <- beta r - x, rounded outward in O(1) a digit, and x is read off it
whenever x < beta r < x + 1.  A digit it
cannot decide, such as every exact zero, is found by exact signs of
v - x p on the exact remainder, one a probe.  The search first confirms
the bracket [a >> e, b >> e] that the enclosure still gives, which
settles an exact zero in one sign; where the bracket fails, it gallops
up by steps 1, 2, 4, ..., capped at the largest digit, until v - x p goes
negative, then bisects, so a digit D off its bracket takes about
2 log2(D) signs.  No remainder is kept
between fallbacks: the value is linear in the digits, so at the digit of
beta^i the remainder beta^max(-i, 0) (n - the digits taken) is one Horner
pass over those digits, negated, with n added at the place of beta^0, and
p = beta^max(i, 0) is another.  A fallback thus costs one Horner pass over
the digits taken so far, and the enclosure is read again off the
remainder.  Fallbacks are rare: no expansion measured made more than one
(see ``greedy_expand_integer``).  An integer base, beta = t_1, takes its
digits from ``divmod`` by t_1, with no sign.

Arithmetic runs on plain integer coordinate vectors over 1, beta, ...,
beta^(m-1).  Multiplying by beta is one companion shift: the coordinates
move up one place and the top one folds back through
beta^m = t_1 beta^(m-1) + ... + t_m, which is O(m).  Horner evaluation of a
digit string, the orbit T^i(1), products and the remainders and place
values of greedy fallbacks all use it, and the greedy search subtracts in
place and asks the vector sign core directly.  ``ZBetaElement`` wraps a
vector for callers.  It has one constructor, which checks the length and
coerces each coordinate with ``operator.index`` (a float raises
TypeError), and every element is built by it, results of arithmetic too.

The beta-integers are read with the Parry automaton.  Its state is the match
length, mod m, against the quasi-greedy period t_1 ... t_(m-1) (t_m - 1): a
digit below the period digit of the state resets it to 0, an equal digit
advances it, and a larger digit rejects.  One left-to-right pass decides
admissibility; the final state is the letter of the gap to the successor;
the successor raises the rightmost digit below its period digit and zeroes
the tail.  The rank of a string in radix order is its value in the linear
numeration system U_k = t_1 U_(k-1) + ... + t_m U_(k-m) (plus 1 for k < m),
U_k counting the admissible strings of length at most k: O(|s|), no walk.

The gap coding read from 0 is the fixed point u (Fabre), and u[:U_i] =
phi^i(0).  Gap codings are held as runs: c copies of a block phi^i(0), or
of one letter.  The prefix u[:N] is the runs of the greedy digits of N in
U_0, U_1, ..., d_i blocks phi^i(0) for each digit d_i from the top.
Codings from other points are walks that keep the automaton state of every
position and step by blocks of u.  From P 0^i, with state 0 after P, the
next U_i points are P v for the admissible v of length at most i,
zero-padded: read from state 0, v reads as from scratch, so P v is
admissible and its gap letter is that of v: these U_i letters are u[:U_i].
The last v is at its period digit throughout, so the next step raises a
digit of P, landing on succ(P) 0^i.  While that digit stays below its
period digit, state 0 follows it again, so one step takes as many copies
of the block as the digit allows.  A walk of N gaps thus takes a few steps
per digit instead of N, however large the digits, and equal neighbouring
runs are merged; each step re-reads only the digits it changes, and no
letter is built.  One joiner spells runs, blocks as bytes and single
letters as integers, for prefixes and codings alike, under TEXT_CAP
letters.

Nothing here re-checks a theorem at run time: the errors raised are those
of the input (an invalid base, an inadmissible string, a count over a cap).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DigitRangeError,
    EmptyWordError,
    FractionalBudgetExceeded,
    InadmissibleInput,
    LetterRangeError,
    MixedBaseError,
    NonIntegerExpansionError,
    ParryViolation,
    TrailingZeroError,
    ZeroHasNoPredecessor,
)
from .words import Word, fmt, word

# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients low degree first)


def _ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    p = _ptrim(p)
    g = math.gcd(*p)
    if p and p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _pdivmod(a, b):
    """Pseudo-division over the integers: q, r with c^k a = q b + r and
    deg r < deg b, where c is the leading coefficient of b and k the number
    of reduction steps; an exact division when b is monic."""
    r = _ptrim(a)
    q = [0] * max(len(r) - len(b) + 1, 0)
    lead = b[-1]
    while len(r) >= len(b):
        shift = len(r) - len(b)
        top = r[-1]
        r = [c * lead for c in r]
        q = [c * lead for c in q]
        q[shift] = top
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        r = _ptrim(r)
    return q, r


def _pgcd(a, b):
    """Primitive gcd of two integer polynomials: the primitive remainder
    sequence, content removed after each pseudo-remainder."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return a


def _enclosure(p, lo, hi, e) -> tuple:
    """Bounds (low, high) on 2^(e (len(p) - 1)) p(x) for all x in
    [lo/2^e, hi/2^e] (0 < lo); zero top coefficients of p count in the scale.

    p = P+ - P- with P+ and P- of non-negative coefficients, both increasing
    for x > 0, so on the interval p lies between P+(lo/2^e) - P-(hi/2^e) and
    P+(hi/2^e) - P-(lo/2^e).  Each part is an integer Horner evaluation
    scaled by 2^(e (len(p) - 1)).
    """
    pl = ph = nl = nh = 0
    shift = 0
    for c in reversed(p):
        pl *= lo
        ph *= hi
        nl *= lo
        nh *= hi
        if c > 0:
            c <<= shift
            pl += c
            ph += c
        elif c < 0:
            c = -c << shift
            nl += c
            nh += c
        shift += e
    return pl - nh, ph - nl


# ---------------------------------------------------------------------------
# the base


@dataclass(frozen=True)
class RenyiExpansion:
    """A validated expansion of 1 in base beta: digits t_1 ... t_m.

    Construction enforces t_1 >= 1, t_m >= 1, beta > 1 and the Parry
    condition: every zero-padded proper suffix of the digit word must be
    strictly lexicographically smaller than the word itself.  Under that
    condition each suffix t_(i+1) ... t_m is the greedy expansion of the gap
    value T^i(1), so the gap values are pairwise distinct and the gap-letter
    coding below is well defined.
    """

    digits: Word

    def __post_init__(self):
        w = word(self.digits)
        object.__setattr__(self, "digits", w)
        if not w:
            raise EmptyWordError("expansion of 1 must be non-empty")
        m = len(w)
        if w[-1] == 0:
            raise TrailingZeroError("expansion of 1 must not end in 0")
        if sum(w) < 2:
            # the single digit word "1" would denote base 1
            raise ParryViolation(1, "digit word denotes a base not exceeding 1")
        for i in range(2, m + 1):
            # the padded suffix w[i-1:] 0^(i-1) is below w iff w[i-1:] <= w[:m-i+1]:
            # were those equal, the padding would meet t_m, which is nonzero
            if w[i - 1:] > w[:m - i + 1]:
                raise ParryViolation(i)
        # isolating interval [lo/2^e, hi/2^e] of beta as (lo, hi, e), shared
        # and monotonically narrowed
        object.__setattr__(self, "_iv", [(1, w[0] + 1, 0)])

    @property
    def m(self) -> int:
        return len(self.digits)

    @property
    def t1(self) -> int:
        return self.digits[0]

    @property
    def max_digit(self) -> int:
        """Largest digit usable in admissible strings (ceil(beta) - 1)."""
        return self.digits[0] if len(self.digits) > 1 else self.digits[0] - 1

    def __repr__(self):
        return f"RenyiExpansion({fmt(self.digits)!r})"


def validate_renyi(candidate) -> RenyiExpansion:
    """Validate a digit word as the expansion of 1 for a simple Parry base;
    the word is parsed once, by the constructor (see ``words.word``)."""
    return RenyiExpansion(candidate)


def parry_polynomial(d: RenyiExpansion):
    """Coefficients (constant first) of x^m - t_1 x^(m-1) - ... - t_m."""
    return tuple(-t for t in reversed(d.digits)) + (1,)


def quasi_greedy(d: RenyiExpansion) -> Word:
    """Period word of the quasi-greedy expansion of 1: t_1 ... t_(m-1) (t_m - 1).

    The expansion itself is this word repeated forever; it is the
    lexicographic supremum of the admissible strings strictly below the
    expansion of 1.
    """
    return d.digits[:-1] + (d.digits[-1] - 1,)


def _beta_estimate(d: RenyiExpansion) -> float:
    """A float guess at beta (m >= 2), for ``_narrow`` to refine and certify.

    Newton's method on f(x) = 1 - t_1/x - ... - t_m/x^m, increasing and
    concave for x > 0 with its one positive root at beta, started at the
    positive root x_0 of x^2 - t_1 x - t_2: f(x_0) <= 1 - t_1/x_0 - t_2/x_0^2
    = 0, so x_0 <= beta and the iterates rise to beta, and x^(-i) never
    overflows.  For m = 2, x_0 is beta.  Raises OverflowError when t_1 is
    beyond float range.
    """
    t = d.digits
    x = (t[0] + math.sqrt(t[0] * t[0] + 4 * t[1])) / 2
    for _ in range(200):
        y = 1 / x
        s = ds = 0.0  # s(y) = t_1 + t_2 y + ... + t_m y^(m-1) and s'(y)
        for c in reversed(t):
            ds = ds * y + s
            s = s * y + c
        step = (y * s - 1) / (y * y * (s + y * ds))  # -f(x) / f'(x)
        x += step
        if step <= x * 2.0**-50:
            break
    return x


def _parry_at(d: RenyiExpansion, x: int, e: int) -> tuple:
    """2^(e m) P(x/2^e) and 2^(e (m-1)) P'(x/2^e) for the base polynomial P,
    by one integer Horner pass."""
    v, dv = 1, 0
    shift = 0
    for t in d.digits:
        shift += e
        dv = dv * x + v
        v = v * x - (t << shift)
    return v, dv


# bits of the isolating interval beyond what the digits of a greedy
# expansion spend (see ``_narrow``)
_SPARE_BITS = 80


def _narrow(d: RenyiExpansion, extra: int) -> None:
    """Narrow the isolating interval of beta (m >= 2) to width 4/2^E, or a
    few times that, with E = _SPARE_BITS + extra + 4 m log2(beta), by
    Newton's method in integers.

    The float guess of ``_beta_estimate`` is refined by integer Newton steps
    at E bits, each of which must stay in [t_1, t_1 + 1], the interval that
    holds beta, on a rising slope.  A step of s units of 2^-E leaves an
    error of about s^2 / 2^E units, times a constant of the base, so the
    steps stop once s^2 / 2^E is below 2^-8; each step doubles the correct
    bits, so a guess right to 16 bits or more needs at most log2(E/16) + 1
    of them, and no more are made.  A guess that raises, is nan or out of
    range, or whose steps leave the interval, go downhill or run out, gives
    way to Newton's method from (t_1 + 1) 2^E, which always converges:
    every root z of P has |z| <= beta, since P(|z|) <= 0, so by
    Gauss-Lucas the real roots of P' and P'' are at most beta, and P is
    increasing and convex on (beta, oo).  A Newton step from above beta
    therefore lands at or above beta, and rounded up it stays there, so the
    steps fall to beta and stop.

    The result c is taken w = 2 units either side, and w is doubled, within
    [t_1, t_1 + 1], until P(c - w) < 0 < P(c + w): the base polynomial has
    one positive root (Descartes), so that certifies that beta lies
    between, whatever the guess was, and P(t_1) < 0 < P(t_1 + 1) ends the
    doubling.  It replaces the shared interval only when it is narrower.

    A greedy expansion of n passes the bits of n as ``extra``.  Its carried
    enclosure starts about 4k units of 2^-E wide, for its k = log_beta(n)
    integer digits, and each of its k + 4m digits widens it about beta-fold,
    to about 4k n beta^(4m) units at the end: E covers that with
    _SPARE_BITS to spare.
    """
    t1 = d.t1
    try:
        x = _beta_estimate(d)
    except ArithmeticError:
        x = math.nan
    guessed = t1 <= x <= t1 + 1  # False for nan
    e = _SPARE_BITS + extra + math.ceil(4 * d.m * math.log2(x if guessed else t1 + 1))
    bottom, top = t1 << e, (t1 + 1) << e
    c, steps = top, -1  # from above: no limit
    if guessed:
        num, den = x.as_integer_ratio()
        c, steps = (num << e) // den, (e // 16).bit_length() + 1
    while True:
        v, dv = _parry_at(d, c, e)
        step = v // dv if dv > 0 else c  # a slope that does not rise sends c to 0
        c, steps = c - step, steps - 1
        if bottom <= c <= top and step * step << 8 < 1 << e:
            break
        if not bottom <= c <= top or not steps:
            c, steps = top, -1
    lo, hi, w = c - 2, c + 2, 2  # 0 < lo, as c >= t_1 2^e
    while not _parry_at(d, lo, e)[0] < 0 < _parry_at(d, hi, e)[0]:
        w *= 2
        lo, hi = max(c - w, bottom), min(c + w, top)
    old_lo, old_hi, old_e = d._iv[0]
    if (hi - lo) << old_e < (old_hi - old_lo) << e:
        d._iv[0] = (lo, hi, e)


# ---------------------------------------------------------------------------
# exact arithmetic in Z[beta]


@dataclass(frozen=True)
class ZBetaElement:
    """Element of Z[beta] as integer coordinates over 1, beta, ..., beta^(m-1).

    The constructor checks the length and coerces each coordinate with
    ``operator.index``, so a non-integral coordinate raises TypeError.  It
    is the only way an element is built: sums, differences, negatives,
    products, ``zero``, ``one``, ``beta``, ``t_orbit`` and ``value_of`` all
    go through it.  An int operand is lifted to an element's coordinates by
    ``_coerce``, and every product by beta goes through ``_times_beta``.
    """

    d: RenyiExpansion
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.d.m:
            raise ValueError("coordinate vector must have length m")
        object.__setattr__(self, "coords", tuple(map(operator.index, self.coords)))

    def _coerce(self, other):
        """Coordinates of an int or of an element of the same base."""
        if isinstance(other, int):
            return (other,) + (0,) * (len(self.coords) - 1)
        if isinstance(other, ZBetaElement):
            if other.d.digits != self.d.digits:
                raise MixedBaseError("elements belong to different bases")
            return other.coords
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ZBetaElement(self.d, [a + b for a, b in zip(self.coords, o)])

    __radd__ = __add__

    def __sub__(self, other):
        v = self.__rsub__(other)
        return v if v is NotImplemented else -v

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return ZBetaElement(self.d, [-c for c in self.coords])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # Horner over the coordinates of self: v = v * beta + a o
        v = [0] * len(o)
        for a in reversed(self.coords):
            v = _times_beta(self.d, v)
            if a:
                v = [x + a * y for x, y in zip(v, o)]
        return ZBetaElement(self.d, v)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return _value_is_zero(self)

    def sign(self) -> int:
        return zb_sign(self)

    def to_json(self):
        return {"coords": list(self.coords)}

    def __repr__(self):
        return f"ZBetaElement({fmt(self.d.digits)!r}, {self.coords})"


def _times_beta(d: RenyiExpansion, v, c: int = 0) -> list:
    """Coordinates of v * beta + c, from the coordinates v of an element.

    The coordinates shift up one place, c enters at the bottom, and the
    coefficient of beta^m folds back through
    beta^m = t_1 beta^(m-1) + ... + t_m: O(m) work.
    """
    top = v[-1]
    if not top:
        return [c, *v[:-1]]
    return [a + top * t for a, t in zip((c, *v), reversed(d.digits))]


def zero(d: RenyiExpansion) -> ZBetaElement:
    return ZBetaElement(d, (0,) * d.m)


def one(d: RenyiExpansion) -> ZBetaElement:
    return ZBetaElement(d, (1,) + (0,) * (d.m - 1))


def beta(d: RenyiExpansion) -> ZBetaElement:
    """The base itself as an element of Z[beta]."""
    return ZBetaElement(d, _times_beta(d, one(d).coords))


# bits of beta (the exponent e of the isolating interval) beyond the largest
# coordinate of a value before a straddling enclosure of it brings in the gcd:
# past that depth, a straddling enclosure almost always means an exact zero
_REFINE_BITS = 64


def _sign(d: RenyiExpansion, v) -> int:
    """Exact sign (-1, 0, +1) of v(beta) for the coordinates v of an element.

    One loop: enclose v on the isolating interval and return a nonzero sign;
    otherwise narrow the interval and go round again.  The enclosure never
    decides zero.  Once the interval is _REFINE_BITS bits finer than the
    largest coordinate of v, the cofactor h = P / gcd(v, P) of the base
    polynomial P is computed once and enclosed on that turn and every later
    one.  The division is exact: the gcd is primitive, and by Gauss's lemma
    a primitive divisor of the monic P is monic.  P may be reducible, so
    v(beta) == 0 iff beta is a root of gcd(v, P); beta is a simple root of
    P, so that holds iff h(beta) != 0, which the enclosure of h eventually
    shows.  A constant gcd leaves h = P, which never leaves 0, and v shows
    its sign instead.  Each narrowing (``_narrow``) asks for more than both
    the bits of the interval and those of the largest coordinate, so the
    first one reaches the depth of the gcd, and each one after that adds
    _SPARE_BITS or more.
    """
    v = _ptrim(v)
    if not v:
        return 0
    if len(v) == 1:
        return 1 if v[0] > 0 else -1
    h = None
    while True:
        iv = d._iv[0]
        low, high = _enclosure(v, *iv)
        if low > 0:
            return 1
        if high < 0:
            return -1
        bits = max(map(abs, v)).bit_length()
        if h is None and iv[2] - _REFINE_BITS >= bits:
            # a primitive divisor of the monic P is monic (Gauss's lemma),
            # so h is an exact integer quotient
            P = parry_polynomial(d)
            h = _pdivmod(P, _pgcd(v, P))[0]
        if h:
            low, high = _enclosure(h, *iv)
            if low > 0 or high < 0:
                return 0
        _narrow(d, max(iv[2], bits))


def _value_is_zero(a: ZBetaElement) -> bool:
    """Exact test of a(beta) == 0 (see ``_sign``)."""
    return _sign(a.d, a.coords) == 0


def zb_sign(a: ZBetaElement) -> int:
    """Exact sign (-1, 0, +1) of the real number a(beta) (see ``_sign``)."""
    return _sign(a.d, a.coords)


def t_orbit(d: RenyiExpansion, i: int) -> ZBetaElement:
    """T^i(1) exactly: T^0 = 1, T^i = beta * T^(i-1) - t_i; T^m(1) = 0.  That
    is beta^i - t_1 beta^(i-1) - ... - t_i, one Horner pass over the digits
    1, -t_1, ..., -t_i."""
    if not 0 <= i <= d.m:
        raise ValueError(f"orbit index must lie in 0..{d.m}")
    return ZBetaElement(d, _horner(d, (1, *(-t for t in d.digits[:i]))))


# ---------------------------------------------------------------------------
# admissible digit strings and beta-integers


TEXT_CAP = 1 << 20  # letters in one gap coding, fixed-point prefix or factor text
MAX_ALPHABET = 255  # a fixed point holds its letters as bytes


def _check_alphabet(d: RenyiExpansion):
    """Raise LetterRangeError unless 2 <= m <= MAX_ALPHABET."""
    if d.m < 2:
        raise LetterRangeError("canonical substitution needs an alphabet of size >= 2")
    if d.m > MAX_ALPHABET:
        raise LetterRangeError(f"alphabet size {d.m} exceeds the supported maximum {MAX_ALPHABET}")


def _weight(t, u) -> int:
    """U_k for k = len(u), from u = [U_0, ..., U_(k-1)]: the count of
    admissible strings of length at most k, and the length of phi^k(0)."""
    return sum(map(operator.mul, t, reversed(u))) + (len(u) < len(t))


def _spell(d: RenyiExpansion, runs, u):
    """Yield the letters of runs, one part per run.  A run (k, c) is c copies of
    the block phi^k(0) = u[:U_k] when k >= 0, as bytes, and of the single
    letter -k when k < 0, as a tuple (the letter 0 is the block phi^0(0)).
    u = [U_0, U_1, ...] as far as the caller knows them; it is extended as
    needed.  Callers cap the length.  phi^k(0) holds the letters up to
    min(k, m - 1), so every block asked for fits bytes: a prefix needs
    m <= MAX_ALPHABET, and on a wider alphabet a walk reads at most
    MAX_ALPHABET zeros deep.

    Each block is a prefix of the next, so only the longest block built is
    kept, and phi^k(0) is its first U_k letters.  Unrolling
    phi^(j-1)(phi(0)) letter by letter, phi^j(0) is the product of
    phi^(j-i)(0)^(t_i) over i <= min(j, m), then the letter j if j < m.
    """
    t, j, block = d.digits, 0, b"\0"  # block = phi^j(0), the longest built
    for k, c in runs:
        while len(u) <= k:
            u.append(_weight(t, u))
        while j < k:
            j += 1
            # a slice is a copy, so a zero digit is skipped, not sliced
            factors = [block[:u[j - i]] * t[i - 1] for i in range(1, min(j, len(t)) + 1)
                       if t[i - 1]]
            if j < len(t):
                factors.append(bytes((j,)))
            block = b"".join(factors)
        yield block[:u[k]] * c if k >= 0 else (-k,) * c


def fixed_point_prefix_bytes(d: RenyiExpansion, length: int) -> bytes:
    """First ``length`` letters of the fixed point, as bytes (letters < 256).

    With d_(k-1) ... d_0 the greedy digits of the length in U_0, U_1, ...
    (the admissible string of rank ``length``), the prefix is the product
    of phi^i(0)^(d_i) over i = k-1 .. 0: the runs (i, d_i), spelt by
    ``_spell``.  The points below that string run through P c v, with P its
    digits left of position i, c < d_i and v of length at most i; a digit c
    below its period digit resets the automaton to state 0, so each of the
    d_i runs of U_i points reads u[:U_i] = phi^i(0) (see the module
    docstring).  No block built is longer than the length.

    Raises BudgetExceeded for a length above TEXT_CAP before building, and
    LetterRangeError for a base of fewer than 2 or more than MAX_ALPHABET
    letters.
    """
    if length < 0:
        raise ValueError("prefix length must be non-negative")
    if length > TEXT_CAP:
        raise BudgetExceeded(f"a prefix of {length} letters exceeds the cap of {TEXT_CAP}")
    if length:  # the empty prefix needs no alphabet
        _check_alphabet(d)
    t, u = d.digits, [1]
    while u[-1] <= length:
        u.append(_weight(t, u))
    runs = []
    for i in reversed(range(len(u) - 1)):
        q, length = divmod(length, u[i])
        runs.append((i, q))
    return b"".join(_spell(d, runs, u))


def _advance(per, s, states) -> bool:
    """Run the Parry automaton over the digits of s past the last state kept.

    ``states[i]`` is the state before digit i, and the last entry is the
    state after the digits read so far; one state is appended per digit.
    Returns False at the first digit above the period digit of its state.
    """
    m = len(per)
    k = states[-1]
    for a in s[len(states) - 1:]:
        p = per[k]
        if a < p:
            k = 0
        elif a == p:
            k = k + 1 if k + 1 < m else 0
        else:
            return False
        states.append(k)
    return True


def _states(d: RenyiExpansion, s):
    """Automaton states along the word s (see ``_advance``), or None when s
    is not admissible."""
    md = d.max_digit
    for a in s:
        if a > md:
            raise DigitRangeError(f"digit {a} exceeds the alphabet bound {md}")
    states = [0]
    if (s and s[0] == 0) or not _advance(quasi_greedy(d), s, states):
        return None
    return states


def _admissible_states(d: RenyiExpansion, s):
    """The word s with its automaton states; raises InadmissibleInput."""
    s = word(s)
    states = _states(d, s)
    if states is None:
        raise InadmissibleInput(f"{fmt(s)!r} is not admissible")
    return s, states


def is_admissible(d: RenyiExpansion, s) -> bool:
    """Is s the canonical expansion of a non-negative beta-integer?

    Every suffix must be strictly smaller than the expansion of 1, and the
    leading digit must be nonzero (zero is the empty word).  Decided by one
    pass of the Parry automaton.
    """
    return _states(d, word(s)) is not None


@dataclass(frozen=True)
class BetaExpansion:
    """A beta-expansion split into integer and fractional digit words."""

    integer_digits: Word
    fractional_digits: Word = ()

    def __str__(self):
        head = fmt(self.integer_digits) if self.integer_digits else "0"
        return f"{head}.{fmt(self.fractional_digits)}"


def value_of(d: RenyiExpansion, e) -> ZBetaElement:
    """Value of a beta-integer expansion as an element of Z[beta]."""
    if isinstance(e, BetaExpansion):
        if e.fractional_digits:
            raise NonIntegerExpansionError("expansion has fractional digits")
        digits = e.integer_digits
    else:
        digits = word(e)
    return ZBetaElement(d, _horner(d, digits))


def _horner(d: RenyiExpansion, digits) -> list:
    """Coordinates of the sum of digits[i] beta^(n-1-i) over the n digits,
    which may be any ints: one ``_times_beta`` per digit."""
    v = [0] * d.m
    for x in digits:
        v = _times_beta(d, v, x)
    return v


def greedy_expand_integer(d: RenyiExpansion, n: int) -> BetaExpansion:
    """Greedy beta-expansion of a non-negative integer, computed exactly.

    Integer expansions need not terminate; after 4m fractional digits the
    partial result is raised in FractionalBudgetExceeded.  n is coerced
    with ``operator.index``, so a float raises TypeError.

    An integer n <= max_digit is below beta, so it is its own one digit.
    An integer base (m = 1) has beta = t_1, so the digits are those of n in
    radix t_1, by ``divmod``, and take no sign.  Otherwise ``_narrow``
    narrows the interval of beta once, sized by the bits of n, and an
    enclosure a <= 2^e r <= b of r = n / beta^k is carried through all
    k + 4m digit positions by r <- beta r - x, rounded outward in O(1) a
    digit.  k, with beta^k > n certified by lo^k > n 2^(e k), comes from a
    float estimate; one too many only adds a leading zero.  The enclosure
    gives x whenever x < beta r < x + 1, which makes x the greedy digit, as
    beta r < beta.  It never decides an integer beta r, so every exact
    zero, and any digit it is too wide for, goes to ``_greedy_digit``, with
    the bracket (a >> e, b >> e) that it still gives.

    No remainder is kept between such fallbacks.  At the digit of beta^i
    the search compares beta^max(-i, 0) (n - the digits taken) with
    beta^max(i, 0).  The value is linear in the digits, so the first is one
    ``_horner`` pass over the digits taken, negated and right-aligned with
    zeros, with n added at the place of beta^0, and the second is another;
    the enclosure is then read again off the remainder.  A fallback thus
    costs one Horner pass over the digits taken so far, O((k + 4m) m).
    Fallbacks are rare.  Over 11,486 expansions, the 150 of the
    ``exact_arith`` benchmark at seed 7 and the 11,336 ``expand`` commands
    of ``tools/same_outputs.py``, 6,163 were not exact and made none, 1,051
    were exact and made none, and 4,272 made one, at the exact zero that
    ends them; none made two.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("only non-negative integers are expanded")
    md = d.max_digit
    if n <= md:
        return BetaExpansion((n,) if n else (), ())
    if d.m == 1:
        digits = []
        while n:
            n, x = divmod(n, d.t1)
            digits.append(x)
        return BetaExpansion(tuple(reversed(digits)))
    _narrow(d, n.bit_length())
    # beta - t_1 >= 1 / (m beta^(m-1)) (mean value theorem, P(t_1) <= -1),
    # far above the width of the interval, so lo > 2^e and the estimate is
    # finite
    lo, hi, e = d._iv[0]
    k = int(math.log2(n) / (math.log2(lo) - e)) + 1
    while lo ** k <= n << e * k:
        k += 1
    a, b, lo, hi, e = _carried(d, [n] + [0] * (d.m - 1), k)
    digits, exact = [], False
    for i in range(k - 1, -4 * d.m - 1, -1):  # the digit of beta^i
        # r >= 0 and b >= 0, so these bound beta r, rounded outward
        a, b = lo * a >> e, -(-hi * b >> e)
        x = a >> e
        if x << e < a and b < (x + 1) << e:
            digits.append(x)
            a -= x << e
            b -= x << e
            continue
        # beta^max(-i, 0) (n - the digits taken) against beta^max(i, 0)
        v = [-x for x in digits] + [0] * (max(i, 0) + 1)
        v[k - 1] += n
        rem = _horner(d, v)
        x, exact = _greedy_digit(d, rem, _horner(d, (1,) + (0,) * max(i, 0)), (x, b >> e))
        digits.append(x)
        if exact:
            digits += [0] * i  # the rest of the integer part, if any
            break
        # the signs of the search may have narrowed the interval of beta
        a, b, lo, hi, e = _carried(d, rem, max(i, 0))
    top = next(j for j, x in enumerate(digits) if x)  # drop leading zeros
    expansion = BetaExpansion(tuple(digits[top:k]), tuple(digits[k:]))
    if not exact:
        raise FractionalBudgetExceeded(expansion)
    return expansion


def _carried(d: RenyiExpansion, v, k: int) -> tuple:
    """(a, b, lo, hi, e) with a <= 2^e v(beta) / beta^k <= b, for
    v(beta) >= 0, from the enclosure of v on the isolating interval
    [lo/2^e, hi/2^e] of a base with m >= 2.  A negative a is a valid lower
    bound."""
    lo, hi, e = d._iv[0]
    low, high = _enclosure(v, lo, hi, e)
    s = e * (len(v) - 1)
    return ((low << e * (k + 1)) // (hi ** k << s), -((-high << e * (k + 1)) // (lo ** k << s)),
            lo, hi, e)


def _greedy_digit(d: RenyiExpansion, v: list, p, bracket) -> tuple:
    """The largest x <= md = max_digit with v - x p >= 0 (p > 0, v > 0),
    leaving v - x p in v, one exact sign of v - x p a probe.  p is
    subtracted in place, and added back after a probe that goes negative.
    bracket (low, high) is where an enclosure puts x, and is confirmed, not
    trusted: the first probe is high (kept in 1..md), then high + 1 if that
    holds, or low if it does not, so a right bracket of width 0 or 1 takes
    at most two signs.  Past it, the search gallops up from the largest x
    that holds, by steps 1, 2, 4, ..., capped at md, until a probe goes
    negative (from a bracket of (0, 0): x = 1, 2, 4, ...), then bisects.
    Also returns whether a probe found v - x p to be 0; that x is the
    digit, so the search stops there and each exact zero is decided once."""
    md = d.max_digit
    low, high = bracket
    x = high if 0 < high <= md else 1 if high < 1 else md
    # v holds v - lo p; hi = md + 1 is never probed
    lo, hi, step, zero = 0, md + 1, 1, False
    while lo + 1 < hi and not zero:
        for i, c in enumerate(p):
            v[i] -= (x - lo) * c
        sign = _sign(d, v)
        if sign < 0:
            for i, c in enumerate(p):
                v[i] += (x - lo) * c
            hi = x
        else:
            lo, zero = x, sign == 0
        if hi > md:
            x, step = min(lo + step, md), 2 * step
        else:
            x = low if lo < low < hi else (lo + hi) // 2
    return lo, zero


def next_admissible(d: RenyiExpansion, s) -> Word:
    """Radix successor among admissible strings (length first, then lex).

    Radix order on admissible strings equals numerical order of the
    beta-integers they denote.  This is a walk of one gap, so it takes no
    block: the single step described in ``_segment``.
    """
    return _segment(d, s, 1)[1]


def beta_integers(d: RenyiExpansion):
    """Yield the admissible strings in radix (= value) order, starting at 0."""
    y = ()
    while True:
        yield y
        y = next_admissible(d, y)


def radix_rank(d: RenyiExpansion, s) -> int:
    """Number of admissible strings strictly below s in radix order.

    That is the value of s in the linear numeration system U, where U_k
    counts the admissible strings of length at most k:
    U_k = t_1 U_(k-1) + ... + t_m U_(k-m), plus 1 while k < m.
    """
    return _rank_state(d, s)[0]


def _rank_state(d: RenyiExpansion, s) -> tuple:
    """The rank of s (see ``radix_rank``) and its final automaton state, the
    letter of the gap after s, from one automaton pass."""
    s, states = _admissible_states(d, s)
    u = []
    for _ in s:
        u.append(_weight(d.digits, u))
    return sum(a * w for a, w in zip(reversed(s), u)), states[-1]


def succ_gap_letter(d: RenyiExpansion, y) -> int:
    """Letter coding the gap succ(y) - y = T^k(1): k is the final state of
    the Parry automaton on y, the length of the suffix of y matching the
    quasi-greedy expansion of 1, mod m."""
    return _admissible_states(d, y)[1][-1]


def pred_gap_letter(d: RenyiExpansion, y) -> int:
    """Letter coding the gap y - pred(y): the trailing zero count of y, mod m."""
    y = word(y)
    if not y:
        raise ZeroHasNoPredecessor("zero has no predecessor in Z_beta+")
    _admissible_states(d, y)  # raises unless y is admissible
    k = 0
    while y[len(y) - 1 - k] == 0:
        k += 1
    return k % d.m


def _segment(d: RenyiExpansion, start, count: int):
    """The runs of the count gaps of Z_beta+ from start (see ``_spell``), the
    beta-integer count steps after start, and its automaton state: the
    letter of the gap that follows it.

    A step raises the rightmost digit below the period digit of its
    automaton state by one and zeroes the tail; when every digit equals its
    period digit the word rolls over to 1 followed by zeros.  The walk keeps
    the automaton state before every digit, so a step re-runs the automaton
    only over the digits it changes.  Every string it lands on is
    admissible, so that run never rejects: the raised digit stays at or
    below its period digit, a zero is accepted from any state, and 1 0^n is
    admissible because its 1 is at most the first period digit (t_1 >= 1,
    and t_1 >= 2 when m = 1, where that digit is t_1 - 1).

    A step from y = P 0^i, with state 0 after P, reads the block
    phi^i(0) = u[:U_i] of the points P v at once and lands on succ(P) 0^i
    (see the module docstring), for the largest such i with U_i <= the gaps
    left; i = 0 is the single step, which reads the gap letter of y.  While
    the last digit a of P stays below its period digit p, state 0 follows
    it again, so the step takes up to p - a copies of the block at once and
    raises a by their count.  Equal neighbouring runs are merged, so a walk
    holds a few runs per digit of its end, and no letter is built: the
    count has no cap.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    y, states = _admissible_states(d, start)
    per = quasi_greedy(d)
    y = list(y)
    runs = []
    u = [1]  # U_0, U_1, ...: block lengths, as far as zero runs have asked
    # phi^i(0) holds the letters up to min(i, m - 1) and _spell holds blocks
    # as bytes, so on a wider alphabet a run is read at most MAX_ALPHABET
    # zeros deep
    deepest = MAX_ALPHABET if d.m > MAX_ALPHABET else math.inf
    while count:  # the gaps left
        n = len(y)
        i = k = 0
        while k < n and k < deepest and y[n - 1 - k] == 0:
            if len(u) == k + 1:
                u.append(_weight(d.digits, u))
            if u[k + 1] > count:
                break
            k += 1
            if not states[n - k]:
                i = k
        pos, c = n - 1 - i, 1
        if pos >= 0 and y[pos] < per[states[pos]]:
            c = min(per[states[pos]] - y[pos], count // u[i])
        key = i or -states[-1]
        count -= c * u[i]
        while pos >= 0 and y[pos] == per[states[pos]]:
            pos -= 1
        if pos < 0:
            y = [1] + [0] * n
            del states[1:]
        else:
            y[pos] += c
            y[pos + 1:] = [0] * (n - 1 - pos)
            del states[pos + 1:]
        _advance(per, y, states)
        if runs and runs[-1][0] == key:
            c += runs.pop()[1]
        runs.append((key, c))
    return runs, tuple(y), states[-1]


def coding_of_segment(d: RenyiExpansion, start, count: int) -> Word:
    """Gap letters of the count consecutive gaps of Z_beta+ starting at start.

    Raises BudgetExceeded for a count above TEXT_CAP before walking.
    """
    if count > TEXT_CAP:
        raise BudgetExceeded(f"a coding of {count} gaps exceeds the cap of {TEXT_CAP} letters")
    parts = _spell(d, _segment(d, start, count)[0], [1])
    return tuple(a for part in parts for a in part)
