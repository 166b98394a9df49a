"""Reference implementations of the beta-integer layer, kept as test oracles.

These are the direct definitions: admissibility compares every suffix with
the expansion of 1, the successor tries every candidate bump from the right,
the rank counts successors from 0, and the match length reads the string
backwards.  They are quadratic or worse and are only run on small inputs.
The gap-by-gap walk is the exception: it is the package's walk before it
took blocks of the fixed point, one successor step per gap.
"""

from parryscope.errors import DigitRangeError, InadmissibleInput, VerificationFailed
from parryscope.numeration import quasi_greedy
from parryscope.words import fmt, word


def _suffix_less(d, s, i):
    """Is the suffix s[i:] strictly smaller than the expansion of 1?

    A suffix longer than m that starts with the full digit word compares
    greater (the expansion is then its proper prefix).
    """
    t = d.digits
    m = len(t)
    n = len(s) - i
    for k in range(min(n, m)):
        if s[i + k] != t[k]:
            return s[i + k] < t[k]
    return n < m


def is_admissible(d, s):
    """Every suffix strictly below the expansion of 1, no leading zero."""
    s = word(s)
    if not s:
        return True
    md = d.max_digit
    for a in s:
        if a > md:
            raise DigitRangeError(f"digit {a} exceeds the alphabet bound {md}")
    if s[0] == 0:
        return False
    return all(_suffix_less(d, s, i) for i in range(len(s)))


def _require(d, s):
    s = word(s)
    if not is_admissible(d, s):
        raise InadmissibleInput(f"{fmt(s)!r} is not admissible")
    return s


def next_admissible(d, s):
    """Bump the rightmost position that admits a larger digit (trying each
    candidate), zero the tail; roll over to 1 0...0."""
    s = _require(d, s)
    md = d.max_digit
    for pos in range(len(s) - 1, -1, -1):
        for v in range(s[pos] + 1, md + 1):
            cand = s[:pos] + (v,) + (0,) * (len(s) - 1 - pos)
            if is_admissible(d, cand):
                return cand
    return (1,) + (0,) * len(s)


def radix_rank(d, s):
    """Number of successor steps from the empty word to s."""
    s = _require(d, s)
    rank = 0
    y = ()
    while y != s:
        y = next_admissible(d, y)
        rank += 1
    return rank


def block_lengths(d, n):
    """U_0, ..., U_(n-1) term by term: U_k = t_1 U_(k-1) + ... + t_m U_(k-m),
    plus 1 while k < m, with the terms of negative index left out."""
    t = d.digits
    u = []
    for k in range(n):
        u.append(sum(t[i - 1] * u[k - i] for i in range(1, min(k, len(t)) + 1)) + (k < len(t)))
    return u


def succ_match_length(d, y):
    """Largest k <= |y| such that the length-k suffix of y is a prefix of the
    quasi-greedy expansion of 1."""
    y = _require(d, y)
    per = quasi_greedy(d)
    m = d.m
    n = len(y)
    for k in range(n, 0, -1):
        if all(y[n - k + i] == per[i % m] for i in range(k)):
            return k
    return 0


def _advance(per, s, states):
    """Run the Parry automaton over s past the last state kept; False at
    the first digit above the period digit of its state."""
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


def segment(d, start, count):
    """Gap letters of count gaps from start, the point reached and its
    automaton state, by one successor step per gap."""
    y = list(_require(d, start))
    per = quasi_greedy(d)
    states = [0]
    _advance(per, y, states)
    letters = []
    for _ in range(count):
        letters.append(states[-1])
        pos = len(y) - 1
        while pos >= 0 and y[pos] == per[states[pos]]:
            pos -= 1
        if pos < 0:
            y = [1] + [0] * len(y)
            del states[1:]
        else:
            y[pos] += 1
            y[pos + 1:] = [0] * (len(y) - 1 - pos)
            del states[pos + 1:]
        if not _advance(per, y, states):
            raise VerificationFailed("admissible", f"successor {fmt(y)} is not admissible")
    return tuple(letters), tuple(y), states[-1]


def witness_by_letters(d, bundle):
    """The witness check by whole letter strings, as the package made it
    before it compared runs of blocks.  The span gaps from 0 spell u[:span]
    and end on z, in the state u[span]; the walks of span gaps from x1 and
    x2 must spell the same letters, so each ends at x + z, one successor
    step per gap.  Returns (span, w0, x1_end, x2_end, pred_letters, u[span]),
    or the name of the first condition that fails."""
    span = radix_rank(d, bundle.z)
    coding, end, k = segment(d, (), span)
    assert end == bundle.z
    ends, preds = [], []
    for x in (bundle.x1, bundle.x2):
        letters, end, state = segment(d, x, span)
        if letters != coding:
            return "i"
        if state != 0:
            return "iii"
        ends.append(end)
        preds.append(next(i for i, a in enumerate(reversed(x)) if a) % d.m)
    if preds[0] == preds[1]:
        return "ii"
    if k == 0 or not bundle.a_pad <= k <= bundle.a_pad + len(bundle.c) < d.m:
        return "iv"
    return span, coding + (0,), ends[0], ends[1], tuple(preds), k
