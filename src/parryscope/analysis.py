"""Factor complexity, special factors, tridents, the affineness test, and the
non-affine witness construction over the beta-integers.

Factor sets are certified complete, not sampled from a prefix.  Let L2 be
the set of two-letter factors of the fixed point u.  Cut u = phi^k(u) into
the blocks phi^k(u_i): once every block phi^k(a) has at least n - 1 letters,
a factor of length n that starts in one block ends in the next, so it lies
in a text phi^k(a) phi^k(b) with ab in L2.  L2 is the closure of {u_0 u_1}
under the two-letter factors of phi(ab); the least such k follows from
integer letter counts.  A window of phi^k(a) phi^k(b) lies in one block or
crosses the boundary, and a window of a block phi^j(a), the product of the
sub-blocks phi^(j-1)(c) over the letters c of phi(a), lies in one sub-block
or crosses a joint between two.  So each block is opened once, and only the
letters around its joints are read before its sub-blocks are opened in
turn; a block of at most 2n letters is read whole.  The joints, the short
blocks and the boundaries of the pairs are gathered first, and each
distinct text among them is read once.  Only the set of the longest length
is built: u is right-infinite, so every factor is a prefix of a longer one.

A library is certified once, when it is made: the (L-1)-suffixes of its
L-factors must be their (L-1)-prefixes (see ``FactorLibrary``).  That one
check makes the n-suffixes of the factors their n-prefixes at every n < L,
so counts read off prefixes and counts read off suffixes agree, and it gives
Cassaigne's balance sum(#Lext - 1) = C(n+1) - C(n) at every n.  Nothing
that reads the library checks it again.

C(n) and every special-factor inventory come from two sorts of the longest
factors.  C(n) is one more than the number of neighbours whose longest
common prefix is shorter than n.  The right special factors of length n,
with their right letters, are the branching nodes of depth n in the trie of
the sorted words; the same walk over the sorted reversed factors gives the
left special factors with their left letters.  A node keeps one sorted key
per letter, and becomes words only when an inventory asks for its length.
A request whose texts would exceed ``TEXT_CAP`` letters, or whose
longest factors would pass ``FACTOR_BYTES_CAP`` stored bytes, raises
BudgetExceeded before anything is built.  The structural classifier is the
authority on affineness; enumeration is the cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, combinations, repeat, zip_longest
from operator import itemgetter

from .errors import (
    BudgetExceeded,
    InadmissibleInput,
    LetterRangeError,
    NotApplicable,
    VerificationFailed,
)
from .numeration import TEXT_CAP, RenyiExpansion, _check_alphabet, _Frozen, _gap_letter, _rank_state
from .numeration import _horner, _segment, _sign, _spell, fixed_point_prefix_bytes, radix_rank
from .substitution import build_substitution
from .words import Word, _lcp, borders, fmt, satisfies_power_condition, word


# ---------------------------------------------------------------------------
# certified factor sets


class PrefixCounts:
    """The trie of a set of words of one length L, from one sort of their
    keys: C(n) for n = 0 .. L and the branching nodes of every depth n < L."""

    def __init__(self, complexity: list, nodes: list, keys: list, length: int, byteorder: str):
        self.complexity = complexity  # complexity[n] = number of distinct n-prefixes
        # nodes[n] = per n-prefix with two or more next letters (n < L), the
        # sorted keys that meet there, one per next letter
        self.nodes = nodes
        self.keys = keys  # the words as sorted integers
        self.length = length
        self.byteorder = byteorder
        self.levels = {}  # n -> branches(n), kept once decoded

    def branches(self, n: int) -> dict:
        """{n-prefix: its next letters, ascending} over the n-prefixes with
        two or more, for 0 <= n < L.  Read little-endian, the words count as
        reversed: {n-suffix: the letters before it}.

        Each level is decoded once and kept, so the levels kept are at most
        L and hold one entry per branching node: no more than the trie.
        The dict returned is the one kept; callers must not mutate it."""
        level = self.levels.get(n)
        if level is None:
            if not 0 <= n < self.length:
                raise ValueError(f"branches need 0 <= n < {self.length}, not {n}")
            shift = 8 * (self.length - n)
            level = self.levels[n] = {
                (node[0] >> shift).to_bytes(n, self.byteorder):
                tuple(key >> shift - 8 & 255 for key in node) for node in self.nodes[n]}
        return level


def _prefix_counts(words, length: int, byteorder: str = "big") -> PrefixCounts:
    """The trie of a non-empty set of distinct words of ``length`` bytes, from
    one sort.  Read little-endian, the words count as reversed."""
    keys = sorted(map(int.from_bytes, words, repeat(byteorder)))
    bits = 8 * length
    cuts = [0] * length  # neighbour pairs by the length of their common prefix
    nodes = [[] for _ in range(length)]
    # (depth, keys) of the branching nodes on the current trie path, below a
    # sentinel shallower than the root
    path = [(-1, None)]
    for x, y in zip(keys, keys[1:]):
        lcp = (bits - (x ^ y).bit_length()) >> 3
        cuts[lcp] += 1
        # neighbours meeting at the same depth share the node only when no
        # pair between them meets higher up
        while path[-1][0] > lcp:
            path.pop()
        depth, node = path[-1]
        if depth == lcp:
            node.append(y)
        else:
            node = [x, y]
            nodes[lcp].append(node)
            path.append((lcp, node))
    return PrefixCounts(list(accumulate(cuts, initial=1)), nodes, keys, length, byteorder)


class FactorLibrary:
    """Factor sets of the fixed point for all lengths up to ``max_len``.

    Only ``longest``, the factors of length ``max_len``, is stored; its two
    sorted views are built when first asked for.  The branching nodes of
    depth n of ``sorted_view`` are the right special n-factors, and those of
    ``reversed_view`` the left special ones, each with its extension
    letters.  Factors are kept as bytes; the public reports convert to
    tuples.  ``prefix_length`` is the total length of the texts phi^k(a)
    phi^k(b), ab in L2, that certify the factors, not the number of letters
    read: ``factor_library`` reads only the joints of the blocks.

    The constructor raises VerificationFailed("balance") unless the
    (L-1)-suffixes of the factors F of length L = ``max_len`` are their
    (L-1)-prefixes, and that is all a reader needs.  When the two sets are
    equal, every f in F has a successor f' in F with f'[:-1] = f[1:] and a
    predecessor h in F with h[1:] = f[:-1].  Following successors L - n
    times from f reaches a factor that starts with f[L-n:], and following
    predecessors reaches one that ends with f[:n].  So for every n < L:

    * the n-suffixes of F are its n-prefixes, and both sorted views count
      the same C(n) and branch over the n-factors;
    * the n-suffixes of the (n+1)-prefixes are the n-prefixes (f[1:n+1] =
      f'[:n] and f[:n] = h[1:n+1]), so the left and the right extensions
      count the same (n+1)-factors, which is sum(#Lext - 1) = C(n+1) - C(n).
    """

    def __init__(self, d: RenyiExpansion, max_len: int, prefix_length: int, longest: set):
        # one slice set alive at once: every suffix is a prefix, and taking
        # the suffixes away leaves no prefix
        heads, tails = itemgetter(slice(None, -1)), itemgetter(slice(1, None))
        prefixes = set(map(heads, longest))
        closed = prefixes.issuperset(map(tails, longest))
        prefixes.difference_update(map(tails, longest))
        if not closed or prefixes:
            n = max_len - 1
            raise VerificationFailed("balance", f"the {n}-suffixes of the factors of length "
                                     f"{max_len} are not their {n}-prefixes")
        self.d = d
        self.max_len = max_len
        self.prefix_length = prefix_length
        self.longest = longest  # the factors of length max_len (bytes)

    @cached_property
    def sorted_view(self) -> PrefixCounts:
        """C(n) and the right special factors, from the sorted factors."""
        return _prefix_counts(self.longest, self.max_len)

    @cached_property
    def reversed_view(self) -> PrefixCounts:
        """C(n) and the left special factors, from the sorted reversed factors."""
        return _prefix_counts(self.longest, self.max_len, "little")


_LIB_CACHE: dict = {}  # one slot: the library of the base used last
FACTOR_BYTES_CAP = 1 << 28  # bytes of the longest factors one library stores


def clear_factor_cache():
    _LIB_CACHE.clear()


def _two_letter_factors(images) -> list:
    """L2: the closure of {u_0 u_1} under the two-letter factors of phi(ab)."""
    found = {images[0][:2]}  # u starts with phi(0) = 0^(t_1) 1
    todo = list(found)
    while todo:
        ab = todo.pop()
        im = images[ab[0]] + images[ab[1]]
        for i in range(len(im) - 1):
            f = im[i:i + 2]
            if f not in found:
                found.add(f)
                todo.append(f)
    return sorted(found)


def _min_stored_bytes(m: int, max_len: int) -> int:
    """A lower bound on the bytes of the factors of length ``max_len``:
    every prefix of the fixed point has m left extensions, so
    C(n) >= (m - 1) n + 1."""
    return ((m - 1) * max_len + 1) * max_len


def factor_library(d: RenyiExpansion, max_len: int) -> FactorLibrary:
    """All factors of lengths up to ``max_len``: those of length ``max_len``
    from the texts phi^k(a) phi^k(b), ab in L2, with every phi^k(a) at least
    max_len - 1 letters long, the shorter ones as their prefixes.

    A window crosses the boundary of a pair or lies in one block, and a
    window of phi^j(a) lies in one sub-block phi^(j-1)(c) or starts in the
    max_len - 1 letters before a joint p between two: so the boundaries,
    the letters p - max_len + 1 .. p + max_len - 2 around every joint, and
    the blocks of at most 2 max_len letters hold every window.  Each block
    phi^j(a) is opened once, and each distinct text read once.  Raises
    BudgetExceeded if the texts would pass TEXT_CAP or the factors of length
    ``max_len`` FACTOR_BYTES_CAP: before building when the lower bound on
    C(max_len) passes it, else as soon as the factors read so far do.

    A rebuild for a base already cached reads the texts at the longest
    length they certify, min_a |phi^k(a)| + 1, so that a sweep of growing
    lengths rebuilds once per k, unless the bound at that length passes
    FACTOR_BYTES_CAP; a cold build reads ``max_len``."""
    cached = _LIB_CACHE.get(d.digits)
    if cached is not None and cached.max_len >= max_len:
        return cached
    images = [bytes(im) for im in build_substitution(d).images]
    pairs = _two_letter_factors(images)
    # images are non-empty, so the text length never decreases with k: a
    # length over the cap at any k is over it at the k the request needs
    lengths = [1] * d.m
    k = 0
    while True:
        text_len = sum(lengths[a] + lengths[b] for a, b in pairs)
        if text_len > TEXT_CAP:
            raise BudgetExceeded(
                f"factor sets up to length {max_len} need at least {text_len} "
                f"letters of text; the cap is {TEXT_CAP}"
            )
        if min(lengths) >= max_len - 1:
            break
        lengths = [sum(lengths[c] for c in im) for im in images]
        k += 1
    stored = _min_stored_bytes(d.m, max_len)
    if stored > FACTOR_BYTES_CAP:
        raise BudgetExceeded(
            f"factor sets up to length {max_len} need at least {stored} "
            f"bytes; the cap is {FACTOR_BYTES_CAP}"
        )
    if cached is not None and _min_stored_bytes(d.m, min(lengths) + 1) <= FACTOR_BYTES_CAP:
        max_len = min(lengths) + 1
    levels = [[bytes([a]) for a in range(d.m)]]  # levels[j][a] = phi^j(a)
    for _ in range(k):
        levels.append([b"".join(levels[-1][c] for c in im) for im in images])
    blocks = levels[k]
    # a window of phi^k(a) phi^k(b) lies in one block or starts in the last
    # max_len - 1 letters of phi^k(a); every letter occurs in L2 (phi is
    # primitive), and every block is at least max_len - 1 letters long
    edge = max_len - 1
    # each distinct text once, in the order found, so that a run over the
    # cap stops at the same factor every time
    texts = dict.fromkeys(blocks[a][len(blocks[a]) - edge:] + blocks[b][:edge] for a, b in pairs)
    # open each block once: the letters around its joints, then its
    # sub-blocks (see the docstring)
    todo = [(k, a) for a in range(d.m)]
    opened = set()
    while todo:
        j, a = item = todo.pop()
        block = levels[j][a]
        if item in opened or len(block) < max_len:
            continue
        opened.add(item)
        if len(block) <= 2 * max_len:  # every block of phi^0 is one letter
            texts[block] = None
            continue
        for p in accumulate(len(levels[j - 1][c]) for c in images[a][:-1]):
            texts[block[max(0, p - edge):p + edge]] = None
        todo.extend((j - 1, c) for c in images[a])
    longest = set()
    for text in texts:
        longest.update(text[i:i + max_len] for i in range(len(text) - edge))
        if len(longest) * max_len > FACTOR_BYTES_CAP:
            raise BudgetExceeded(
                f"{len(longest)} factors of length {max_len} pass the cap of "
                f"{FACTOR_BYTES_CAP} bytes"
            )
    lib = FactorLibrary(d, max_len, text_len, longest)
    _LIB_CACHE.clear()
    _LIB_CACHE[d.digits] = lib
    return lib


# ---------------------------------------------------------------------------
# complexity


class ComplexityProfile:
    """C(n) and its first difference over 1..n_max, with provenance."""

    def __init__(self, d: RenyiExpansion, n_max: int, values: list, deltas: list,
                 prefix_length_used: int):
        self.d = d
        self.n_max = n_max
        self.values = values  # C(1), ..., C(n_max)
        self.deltas = deltas  # C(2)-C(1), ..., C(n_max)-C(n_max-1)
        self.prefix_length_used = prefix_length_used

    def c(self, n: int) -> int:
        return self.values[n - 1]


def complexity_profile(d: RenyiExpansion, n_max: int) -> ComplexityProfile:
    """Count distinct factors per length."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lib = factor_library(d, n_max)
    values = lib.sorted_view.complexity[1:n_max + 1]
    deltas = [values[i + 1] - values[i] for i in range(n_max - 1)]
    return ComplexityProfile(d, n_max, values, deltas, lib.prefix_length)


# ---------------------------------------------------------------------------
# special factors


class SpecialFactorReport:
    """Left/right special factors of one length with their extension
    letters, read off the branching nodes of the two sorted views of a
    certified library, so that sum(#Lext - 1) == C(n+1) - C(n)."""

    def __init__(self, d: RenyiExpansion, n: int, left_special: dict, right_special: dict,
                 bispecial: list, c_n: int, c_n1: int, prefix_length_used: int):
        self.d = d
        self.n = n
        self.left_special = left_special  # Word -> sorted tuple of extension letters
        self.right_special = right_special
        self.bispecial = bispecial
        self.c_n = c_n
        self.c_n1 = c_n1
        self.prefix_length_used = prefix_length_used

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SpecialFactorReport else NotImplemented

    @property
    def delta(self) -> int:
        return self.c_n1 - self.c_n

    def to_json(self):
        return {
            "d": fmt(self.d.digits),
            "n": self.n,
            "left_special": [
                {"word": fmt(w), "lext": list(e)} for w, e in sorted(self.left_special.items())
            ],
            "right_special": [
                {"word": fmt(w), "rext": list(e)} for w, e in sorted(self.right_special.items())
            ],
            "bispecial": [fmt(w) for w in self.bispecial],
            "delta": self.delta,
            "prefix_length_used": self.prefix_length_used,
        }


def special_factors(d: RenyiExpansion, n: int) -> SpecialFactorReport:
    """Inventory of special factors at length n."""
    if n < 1:
        raise ValueError("length must be at least 1")
    lib = factor_library(d, n + 1)
    left = {tuple(w): e for w, e in lib.reversed_view.branches(n).items()}
    right = {tuple(w): e for w, e in lib.sorted_view.branches(n).items()}
    bis = sorted(left.keys() & right.keys())
    c = lib.sorted_view.complexity
    return SpecialFactorReport(d, n, left, right, bis, c[n], c[n + 1], lib.prefix_length)


def maximal_left_special(d: RenyiExpansion, bound: int) -> list:
    """All maximal left special factors of length <= bound.

    A left special factor w is maximal when no one-letter right extension
    is left special again, that is, when no left special factor of length
    |w| + 1 starts with w.  It is right special: were a the only right
    letter of w, then for each left letter b of w the factor bw would extend
    right by a alone, so b would be a left letter of wa, and wa left special.
    """
    if bound < 1:
        raise ValueError("length bound must be at least 1")
    view = factor_library(d, bound + 2).reversed_view
    left = [view.branches(n) for n in range(1, bound + 2)]
    out = [w for shorter, longer in zip(left, left[1:])
           for w in shorter.keys() - {v[:-1] for v in longer}]
    return sorted(map(tuple, out), key=lambda w: (len(w), w))


class Trident(_Frozen):
    """A factor with one left special extension and two non-special
    extensions whose unique left extensions differ."""

    def __init__(self, word: Word, rooted: int, teeth: tuple, teeth_lext: tuple):
        # teeth: (y, z), y < z, neither extension left special; teeth_lext:
        # the corresponding unique left-extension letters
        self.__dict__.update(word=word, rooted=rooted, teeth=teeth, teeth_lext=teeth_lext)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Trident else NotImplemented

    def __hash__(self):
        return hash((self.word, self.rooted, self.teeth, self.teeth_lext))

    def to_json(self):
        return {
            "word": fmt(self.word),
            "rooted": self.rooted,
            "teeth": list(self.teeth),
            "teeth_lext": list(self.teeth_lext),
        }


def find_tridents(d: RenyiExpansion, bound: int) -> list:
    """Exhaustive trident search over the factors of length <= bound."""
    if bound < 0:
        raise ValueError("length bound must be non-negative")
    lib = factor_library(d, bound + 2)
    keys = lib.reversed_view.keys
    out = []
    for n in range(bound + 1):
        left = lib.reversed_view.branches(n + 1)
        shift = 8 * (lib.max_len - n - 1)
        for w, right in lib.sorted_view.branches(n).items():
            if len(right) < 3:  # one rooted tooth and two plain ones
                continue
            rooted = []
            plain = []
            for a in right:
                v = w + bytes([a])
                if v in left:
                    rooted.append(a)
                else:
                    # the reversed keys of the factors ending in v start at
                    # the first one at or above v's, and share the letter before v
                    key = keys[bisect_left(keys, int.from_bytes(v, "little") << shift)]
                    plain.append((a, key >> shift - 8 & 255))
            for (y, ly), (z, lz) in combinations(plain, 2):
                if ly != lz:
                    out.extend(Trident(tuple(w), x, (y, z), (ly, lz)) for x in rooted)
    return sorted(out, key=lambda t: (len(t.word), t.word, t.rooted, t.teeth))


# ---------------------------------------------------------------------------
# affineness


class OracleCheck:
    """Enumeration cross-check of the structural verdict."""

    def __init__(self, agrees: bool, first_excess_n: int | None, profile: ComplexityProfile):
        self.agrees = agrees
        self.first_excess_n = first_excess_n
        self.profile = profile

    @property
    def affine(self) -> bool:
        """Deltas identically m-1 on the computed range."""
        return self.first_excess_n is None

    def to_json(self):
        return {
            "n_max": self.profile.n_max,
            "prefix_length_used": self.profile.prefix_length_used,
            "affine": self.affine,
            "agrees": self.agrees,
            "first_excess_n": self.first_excess_n,
        }


class Classification:
    """Structural affineness verdict for the fixed point of the base."""

    def __init__(self, d: RenyiExpansion, affine: bool, slope: int | None = None,
                 intercept: int | None = None, reason: str | None = None, p: Word | None = None,
                 evidence: Word | None = None, oracle: OracleCheck | None = None):
        self.d = d
        self.affine = affine
        self.slope = slope
        self.intercept = intercept
        self.reason = reason  # "tm_not_one" | "fractional_power"
        # shortest border, for the fractional power case; the witness bundle's
        # p is the power of it chosen by construct_witness
        self.p = p
        self.evidence = evidence  # a known non-prefix left special factor
        self.oracle = oracle

    @property
    def first_excess_n(self) -> int | None:
        """The least n with C(n+1) - C(n) != m - 1, predicted; None when
        the base is affine.

        C(n+1) - C(n) is the sum of #Lext(w) - 1 over the left special
        factors w of length n, and every prefix of u is left special with
        all m letters, so the difference exceeds m - 1 exactly when a left
        special factor of length n is not a prefix.

        t_m >= 2: t_1 + 1, by the three families of the factors X 0^r Y
        with X and Y nonzero: j_k 0^(t_k) k for 2 <= k <= m-1, k 0^(t_1) 1
        for 1 <= k <= m-1, and j_m 0^(t_1 + t_m) 1, where j_k is the least
        i >= 1 with t_(k-i) != 0 (``tests/gap_oracle.py`` checks them
        against the factor library).  Let a factor of length n <= t_1 hold
        a nonzero letter Y after i < t_1 zeros.  The zero run that ends at
        Y has length t_Y when Y >= 2, and at least t_1 > i when Y = 1, so
        the letter before the factor is 0 when the run is longer than i and
        the one letter j_Y that the family puts before the run otherwise.
        So 0^n, a prefix, is the only left special factor of length n, and
        the difference is m - 1.  0^(t_1+1) extends left by 0 and by j_m,
        inside j_m 0^(t_1+t_m) 1 with t_m >= 2, and it is not a prefix, as
        u starts with 0^(t_1) 1.

        Fractional power: radix_rank(z) + 1, the length of w0, for the
        witness point z of ``construct_witness``.  This is checked, not
        proved: it matched enumeration on all 17 such bases of
        m=2..5,digit<=3, at n_max = 60 and, for the three whose excess lies
        beyond (33031, 33131, 33231 at 61, 124, 189), one past it.  The
        t_m >= 2 rule matched on all 169 bases there.
        """
        if self.affine:
            return None
        if self.reason == "tm_not_one":
            return self.d.t1 + 1
        return radix_rank(self.d, self.witness.z) + 1

    @cached_property
    def witness(self):
        """The bundle of ``construct_witness``, built once per classification."""
        return construct_witness(self.d, self)

    def to_json(self):
        if self.affine:
            verdict = {"affine": True, "slope": self.slope, "intercept": self.intercept}
        else:
            verdict = {"affine": False, "reason": self.reason}
            if self.p is not None:
                verdict["p"] = fmt(self.p)
        return {
            "d": fmt(self.d.digits),
            "m": self.d.m,
            "verdict": verdict,
            "evidence": fmt(self.evidence) if self.evidence is not None else None,
            "oracle": self.oracle.to_json() if self.oracle else None,
        }


def classify_affine(d: RenyiExpansion, oracle_n=None) -> Classification:
    """Affine iff t_m == 1 and t_1 ... t_(m-1) is borderless or a proper power.

    With ``oracle_n`` the verdict is cross-checked against enumeration.
    The differences C(n+1) - C(n) are read for n = 1 .. oracle_n - 1; they
    agree when the first that is not m - 1 sits at the predicted
    ``first_excess_n``, or when there is none and the prediction is None or
    beyond that range.  A one-letter alphabet raises LetterRangeError.
    """
    m = d.m
    if m < 2:
        raise LetterRangeError("the affineness test needs an alphabet of size >= 2")
    if d.digits[-1] != 1:
        ev = (0,) * (d.t1 + d.digits[-1] - 1)
        cls = Classification(d, affine=False, reason="tm_not_one", evidence=ev)
    else:
        prefix = d.digits[:-1]
        if satisfies_power_condition(prefix):
            cls = Classification(d, affine=True, slope=m - 1, intercept=1)
        else:
            p = prefix[:min(borders(prefix))]
            cls = Classification(d, affine=False, reason="fractional_power", p=p)
    if oracle_n is not None:
        prof = complexity_profile(d, oracle_n)
        excess = next((i + 1 for i, dc in enumerate(prof.deltas) if dc != m - 1), None)
        want = cls.first_excess_n
        if want is not None and want >= oracle_n:
            want = None
        cls.oracle = OracleCheck(excess == want, excess, prof)
    return cls


def full_report(d: RenyiExpansion, oracle_n=None) -> dict:
    """Composite JSON report: verdict, enumeration data, witness, specials.

    The witness block is attached whenever the fractional power construction
    applies; the specials block summarizes per-length special factor counts
    on the oracle range.
    """
    cls = classify_affine(d, oracle_n=oracle_n)
    body = cls.to_json()
    prof = cls.oracle.profile if cls.oracle else None
    body["complexity"] = prof.values if prof else None
    body["deltas"] = prof.deltas if prof else None
    if cls.reason == "fractional_power":
        bundle = cls.witness
        body["witness"] = {"bundle": bundle.to_json(),
                           "verification": verify_witness(d, bundle).to_json()}
    else:
        body["witness"] = None
    if prof is not None and oracle_n >= 2:
        # the cache may hold a longer library; its counts agree below oracle_n
        lib = factor_library(d, oracle_n)
        body["specials"] = {
            "lengths": list(range(1, oracle_n)),
            "left_special_counts": [len(x) for x in lib.reversed_view.nodes[1:oracle_n]],
            "right_special_counts": [len(x) for x in lib.sorted_view.nodes[1:oracle_n]],
        }
    else:
        body["specials"] = None
    return body


# ---------------------------------------------------------------------------
# the non-affine witness


class WitnessBundle(_Frozen):
    """Data of the witness construction for a base failing the power condition.

    The digit word factors as p^r p' q p 1 with p the border of
    t_1 ... t_(m-1) chosen by ``construct_witness`` (a power of the shortest
    border), r maximal, p' a proper prefix of p of length j, and q starting
    below the digit p_(j+1).  c is the longest common suffix of p p' q and
    p' q p, h1/h2 the distinct digits preceding it, h their minimum, and
    a_pad = r|p| + j + 1 the number of zeros that follow the digit-wise
    differences in x1 and x2.  z, x1 and x2 carry no leading zeros.
    """

    def __init__(self, d: RenyiExpansion, p: Word, r: int, p_prime: Word, q: Word, c: Word,
                 h1: int, h2: int, h: int, a_pad: int, z: Word, x1: Word, x2: Word):
        self.__dict__.update(d=d, p=p, r=r, p_prime=p_prime, q=q, c=c, h1=h1, h2=h2, h=h,
                             a_pad=a_pad, z=z, x1=x1, x2=x2)

    def to_json(self):
        return {"d": fmt(self.d.digits), "p": fmt(self.p), "r": self.r,
                "p_prime": fmt(self.p_prime), "q": fmt(self.q), "c": fmt(self.c),
                "h1": self.h1, "h2": self.h2, "h": self.h, "a_pad": self.a_pad,
                "z": fmt(self.z), "x1": fmt(self.x1), "x2": fmt(self.x2)}


def _drop_leading_zeros(y: Word) -> Word:
    """The admissible spelling of the beta-integer with digits y."""
    return y[next((i for i, a in enumerate(y) if a), len(y)):]


def construct_witness(d: RenyiExpansion, cls: Classification | None = None) -> WitnessBundle:
    """Build the beta-integers z, x1, x2 witnessing a non-prefix left
    special factor, for a base with t_m = 1 whose digit prefix
    w = t_1 ... t_(m-1) has a border but is not a proper power.  ``cls`` is
    the classification of d when the caller has already made it.

    With w = p^r p' q p (see WitnessBundle), z = h c p^r p' q_1, and x1, x2
    are the digit-wise differences p^r p' q - h c and w - h c, each followed
    by a_pad zeros.  The leading zeros of all three are dropped: they do not
    change the value, and an admissible string starts with a nonzero digit.

    The border p.  Let b be the shortest border of w and b^e the longest
    power of b that w starts with.  By the Parry condition w leaves b^e by a
    digit below the digit of b it replaces: w = b^e y a ... with y b' a
    prefix of b and a < b'.  So w has no suffix b^(e+1), and for p a power
    of b, p^r p' q_1 = b^e y a.  If c ends with b, z then has the suffix
    b^(e+1) y a, which is above the prefix of w of the same length, and z
    is not admissible.  c is the common suffix of p p' q and p' q p, and w
    ends with p p' q p, so c ends with b exactly when w ends with b p.  The
    shortest border p = b fails this way when w ends with b b: 221221 has
    b = 2, c = 2 and the inadmissible z = 12221.  So p is the shortest border
    such that b p is not a suffix of w: p = b^f with b^f the longest power
    of b that w ends with.  It is a border because f <= e.  Every border
    shorter than it is a power of b: it has period |b| and starts and ends
    with b, and b, being unbordered, is primitive.  When w does not end with
    b b the rule picks p = b.

    The factors of w.  w is not b^e y (a proper power when y is empty, and
    else y is a border of b), so the digit a exists.  p^r p' is the longest
    prefix of w with period |p|, b^e y, so r|p| + j = e|b| + |y| with
    j < |p|, and a < p_(j+1) follows.  q = w[r|p|+j : |w|-|p|] starts with
    that a, so q is non-empty and q_1 < p_(j+1), once the final p of w
    starts after b^e y.  Say its first b starts at position i <= |b^e y|
    instead.  Occurrences of the unbordered b never overlap, and b does not
    occur at e|b|, so either i = k|b| with k < e, and then the final b^f,
    which holds no b at e|b|, ends by e|b|, before a; or e|b| < i, and then
    with g = i - e|b| the Parry condition at e|b| (b_1 ... b_g b against
    w = b b_1 ... b_g ...) and at g (b_(g+1) ... b_|b| b_1 ... b_g against
    b) makes b equal to its rotation by g, against primitivity.

    The differences.  p^r p' q ends with u1 = p p' q and w with u2 = p' q p,
    so they end with h1 c and h2 c, and |c| + 1 <= |p| + |q| digits of each
    are replaced.  Subtracting h c leaves (h1 - h) 0^|c| and (h2 - h) 0^|c|,
    with no borrow since h = min(h1, h2).  The remaining conditions are not
    derived here, and no point is read: ``verify_witness`` checks that z, x1
    and x2 are admissible and that conditions (i)-(iv) hold.
    """
    cls = cls or classify_affine(d)
    if cls.reason != "fractional_power":
        raise NotApplicable(cls.reason or "affine")
    w = d.digits[:-1]
    b = cls.p
    # p = b^f with b^f the longest power of b that w ends with, and p^r p'
    # the longest prefix of w with period |p|
    p = b * ((len(b) + _lcp(w[::-1], w[:-len(b)][::-1])) // len(b))
    s = len(p)
    r, j = divmod(s + _lcp(w, w[s:]), s)
    p_prime = p[:j]
    # non-empty and below p_(j+1) at its first digit (see the docstring)
    q = w[r * s + j:len(w) - s]
    # u1 and u2 differ, and their common suffix c is shorter than |p| + |q|:
    # their last |p| + |q| letters are p[j:] p' q and q p, whose first
    # letters are p_(j+1) > q_1
    u1 = p + p_prime + q
    u2 = p_prime + q + p
    k = _lcp(u1[::-1], u2[::-1])
    c = u1[len(u1) - k:]
    h1, h2 = u1[len(u1) - 1 - k], u2[len(u2) - 1 - k]
    h = min(h1, h2)
    a_pad = r * s + j + 1
    z = _drop_leading_zeros((h,) + c + w[:a_pad])  # w[:a_pad] == p^r p' q_1
    # v - h c for v ending with hi c, then a_pad zeros
    x1, x2 = (_drop_leading_zeros(v[:len(v) - k - 1] + (hi - h,) + (0,) * (k + a_pad))
              for v, hi in ((w[:len(w) - s], h1), (w, h2)))
    return WitnessBundle(d, p, r, p_prime, q, c, h1, h2, h, a_pad, z, x1, x2)


class WitnessVerification:
    """Outcome of checking the four witness conditions; produced only when
    all of them hold."""

    def __init__(self, bundle: WitnessBundle, span: int, x1_end: Word, x2_end: Word,
                 pred_letters: tuple, succ_letter_z: int):
        self.bundle = bundle
        self.span = span  # number of gaps in [0, z]
        self.x1_end = x1_end
        self.x2_end = x2_end
        self.pred_letters = pred_letters
        self.succ_letter_z = succ_letter_z  # u[span], the final automaton state of z

    @cached_property
    def w0(self):
        """The non-prefix left special factor u[:span] 0, spelt from the runs
        of z when first read, or None when it has more than TEXT_CAP letters."""
        w0 = self._w0_bytes()
        return w0 and tuple(w0)

    def _w0_bytes(self):
        """w0 as bytes, or None (see ``w0``); the report formats these."""
        d, z = self.bundle.d, self.bundle.z
        return b"".join(_spell(d, _runs(z))) + b"\0" if self.span < TEXT_CAP else None

    def to_json(self):
        w0 = self._w0_bytes()
        return {
            "span": self.span,
            "w0": w0 and fmt(w0),
            "w0_length": self.span + 1,
            "x1_end": fmt(self.x1_end),
            "x2_end": fmt(self.x2_end),
            "pred_letters": list(self.pred_letters),
            "succ_letter_z": self.succ_letter_z,
            "conditions": {"i": True, "ii": True, "iii": True, "iv": True},
        }


def _runs(z: Word) -> list:
    """The runs (i, z_i) of the nonzero digits z_i of z, from the top: the
    blocks phi^i(0)^(z_i) of u[:rank(z)] (see ``fixed_point_prefix_bytes``)."""
    return [(len(z) - 1 - j, a) for j, a in enumerate(z) if a]


def _excess(d: RenyiExpansion, a: Word, b: Word, c: Word) -> list:
    """Coordinates of value(a) - value(b) - value(c) for digit words a, b
    and c: the value map is linear in the digits, so one Horner pass over
    their digit differences, read from the right end, where they align."""
    columns = zip_longest(reversed(a), reversed(b), reversed(c), fillvalue=0)
    return _horner(d, reversed([x - y - z for x, y, z in columns]))


def verify_witness(d: RenyiExpansion, bundle: WitnessBundle) -> WitnessVerification:
    """Check the four conditions making w0 = u[:span] 0 a non-prefix left
    special factor of the fixed point u, with span = rank(z).

    u is the gap coding of Z_beta+ read from 0, so u[:span] codes [0, z] and
    u[span] is the gap after z.  u[:span] is the product of the blocks
    phi^i(0)^(z_i) over the digits of z, from the top: the runs of z (see
    ``fixed_point_prefix_bytes``); and u[span] is the final automaton state
    of z.  (i) and (iii): the walk of span gaps from x1, and the one from x2,
    takes the runs of z and ends, exactly at x + z, in the automaton state
    0, so w0 is read after x1 and after x2.  (ii): the gaps before x1 and x2
    differ, so w0 has two left letters.  (iv): u[span] is not 0, so w0 is
    not a prefix.  All four are guaranteed; a failure raises
    VerificationFailed.

    No letter is built while the runs agree, so the span has no cap.  Two
    different run sequences can spell the same letters, so a walk whose runs
    differ from those of z is compared with u[:span] letter by letter, which
    raises BudgetExceeded above TEXT_CAP letters; no base is known to need
    that.

    Each point is read once: z by its rank and final state, and each x by
    its walk, whose first step decides its admissibility; the gap before x
    is read off the digits of x.  The rank, both walks and the spelling of
    w0 read the block lengths U_i from one table kept on d (see
    ``numeration._block_lengths``), so none of them rebuilds it.  An
    inadmissible point raises VerificationFailed with condition
    "admissible".

    A base of more than MAX_ALPHABET letters raises LetterRangeError: its
    w0 cannot be spelt as bytes, and its walks read blocks at most
    MAX_ALPHABET zeros deep, so their steps would not be bounded by the
    length of z.
    """
    _check_alphabet(d)
    z, x1, x2 = bundle.z, bundle.x1, bundle.x2
    try:
        span, k = _rank_state(d, z)
    except InadmissibleInput as exc:
        raise VerificationFailed("admissible", "witness component z must be admissible") from exc
    runs = _runs(z)
    ends, preds = [], []
    for name, x in (("x1", x1), ("x2", x2)):
        try:
            walk, end, state = _segment(d, x, span)
        except InadmissibleInput as exc:
            raise VerificationFailed(
                "admissible", f"witness component {name} must be admissible"
            ) from exc
        # the prefix is refused above TEXT_CAP before the walk's letters are
        # spelt; the alphabet is checked, so every letter fits a byte
        if walk != runs and (fixed_point_prefix_bytes(d, span)
                             != b"".join(map(bytes, _spell(d, walk)))):
            raise VerificationFailed("i", f"coding from {name} differs from coding from 0")
        if _sign(d, _excess(d, end, x, z)):
            raise VerificationFailed("i", f"segment from {name} does not end at {name}+z")
        if state != 0:
            raise VerificationFailed("iii", f"successor gap at {name}+z is not 1")
        ends.append(end)
        # the point 0 has no gap before it, but its walk ends in the state
        # u[span], so it fails (iii) or (iv)
        preds.append(_gap_letter(d, x))
    if preds[0] == preds[1]:
        raise VerificationFailed("ii", "x1 and x2 have equal predecessor gaps")
    # the match of z covers its tail t_1 ... t_(a_pad) and stops before h;
    # a_pad >= 1, so u[span] is not 0 (iv)
    if not (0 < bundle.a_pad <= k <= bundle.a_pad + len(bundle.c) < d.m):
        raise VerificationFailed("iv", f"match length {k} violates the index bounds")
    return WitnessVerification(
        bundle=bundle,
        span=span,
        x1_end=ends[0],
        x2_end=ends[1],
        pred_letters=tuple(preds),
        succ_letter_z=k,
    )
