"""Reference mathematics for the output checks, written from the definitions
and sharing no code with parryscope.

Digit words are tuples of ints; fixed-point prefixes are bytes (one letter
per byte).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from itertools import product


def parry_ok(t) -> bool:
    """Simple Parry condition: nonzero first and last digit, base above 1, and
    every zero-padded proper suffix strictly below the word."""
    t = tuple(t)
    if not t or t[0] == 0 or t[-1] == 0 or sum(t) < 2:
        return False
    return all(t[i:] + (0,) * i < t for i in range(1, len(t)))


def has_border(w) -> bool:
    return any(w[:k] == w[-k:] for k in range(1, len(w)))


def is_proper_power(w) -> bool:
    n = len(w)
    return any(n % k == 0 and w[:k] * (n // k) == w for k in range(1, n // 2 + 1))


def power_condition(w) -> bool:
    return not has_border(w) or is_proper_power(w)


def is_affine(t) -> bool:
    """C(n) = (m-1)n + 1 iff t_m = 1 and t_1..t_(m-1) is borderless or a proper power."""
    return t[-1] == 1 and power_condition(tuple(t[:-1]))


def corpus(m_range, digit_bound, tm=None, nonpower=False):
    """Digit words of the CLI corpus syntax, e.g. m=2..4,digit<=3,tm>=2,
    in the same enumeration order (by m, then lexicographic)."""
    out = []
    for m in m_range:
        for t in product(range(digit_bound + 1), repeat=m):
            if not parry_ok(t) or (tm is not None and not tm(t[-1])):
                continue
            if nonpower and power_condition(t[:-1]):
                continue
            out.append(t)
    return out


def fixed_point(t, length: int) -> bytes:
    """First ``length`` letters of the fixed point of
    i -> 0^t_(i+1) (i+1) for i < m-1, m-1 -> 0^t_m."""
    m = len(t)
    images = [bytes([0] * t[i] + [i + 1]) for i in range(m - 1)]
    images.append(bytes([0] * t[-1]))
    u = b"\x00"
    while len(u) < length:
        # bytes.join keeps an 80-byte buffer record per part: join in chunks
        u = b"".join(b"".join([images[a] for a in u[i:i + 65536]])
                     for i in range(0, len(u), 65536))
    return u[:length]


def left_letters(u: bytes, w: bytes, want: int = 2) -> set:
    """Letters found immediately left of occurrences of w in u (up to ``want``)."""
    found = set()
    pos = u.find(w, 1)
    while pos != -1 and len(found) < want:
        found.add(u[pos - 1])
        pos = u.find(w, pos + 1)
    return found


def is_nonprefix_left_special(t, w: bytes, max_len: int = 1 << 22) -> bool:
    """w is not a prefix of the fixed point and occurs after two different letters."""
    length = max(1 << 12, 8 * len(w))
    while True:
        u = fixed_point(t, length)
        if u.startswith(w):
            return False
        if len(left_letters(u, w)) >= 2:
            return True
        if length >= max_len:
            return False
        length *= 4


def admissible(t, s) -> bool:
    """Every suffix of s, zero padded, lies strictly below the quasi-greedy
    expansion (t_1 .. t_(m-1) (t_m - 1))^omega."""
    per = tuple(t[:-1]) + (t[-1] - 1,)
    m = len(per)
    for i in range(len(s)):
        rest = s[i:]
        for k in range(len(rest) + m):
            a = rest[k] if k < len(rest) else 0
            if a != per[k % m]:
                if a > per[k % m]:
                    return False
                break
        else:
            return False
    return True


_BETA = {}


def beta(t) -> Decimal:
    """Largest root of x^m - t_1 x^(m-1) - ... - t_m to about 60 digits."""
    t = tuple(t)
    if t not in _BETA:
        with localcontext() as ctx:
            ctx.prec = 70
            lo, hi = Decimal(1), Decimal(t[0] + 1)
            for _ in range(240):
                mid = (lo + hi) / 2
                acc = Decimal(1)
                for c in t:
                    acc = acc * mid - c
                lo, hi = (mid, hi) if acc < 0 else (lo, mid)
            _BETA[t] = lo
    return _BETA[t]


def greedy_expansion_error(t, n: int, integer, fraction, exact: bool):
    """None if integer.fraction is the greedy expansion of n in base t
    (truncated when not exact), else the reason it is not."""
    if not integer or integer[0] == 0:
        return "integer part must start with a nonzero digit"
    if not admissible(t, tuple(integer) + tuple(fraction)):
        return "digit string is not admissible"
    with localcontext() as ctx:
        ctx.prec = 70
        b = beta(t)
        value = Decimal(0)
        for x in integer:
            value = value * b + x
        scale = Decimal(1)
        for x in fraction:
            scale /= b
            value += x * scale
        gap = n - value
        tol = Decimal(10) ** -40
        if exact:
            return None if abs(gap) < tol else f"value differs from {n} by {gap:.3e}"
        if tol < gap < scale - tol:
            return None
        return f"truncated value is not within one unit of its last digit below {n}"
