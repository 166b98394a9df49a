"""Factor complexity, special factors, tridents, the affineness test, and the
non-affine witness construction over the beta-integers.

Factor sets are certified complete, not sampled from a prefix.  Let L2 be
the set of two-letter factors of the fixed point u.  Cut u = phi^k(u) into
the blocks phi^k(u_i): once every block phi^k(a) has at least n - 1 letters,
a factor of length n that starts in one block ends in the next, so it lies
in a text phi^k(a) phi^k(b) with ab in L2.  L2 is the closure of {u_0 u_1}
under the two-letter factors of phi(ab); the least such k follows from
integer letter counts.  A window of phi^k(a) phi^k(b) lies in one block or
crosses the boundary, so the windows of each block are read once and those
of each boundary once per pair.  Only the set of the longest length is
built: u is right-infinite, so every factor is a prefix of a longer one.
The inventories that print extension letters read one extension map per
length n off the (n+1)-factors: the keys of the map one length up when it
is built, else prefixes of the longest factors.  A map is kept only when its
n-suffixes are its n-prefixes, which certifies sum(#Lext - 1) = C(n+1) - C(n).

C(n) and the special-factor counts of every length come from one sort of
the longest factors: C(n) is one more than the number of neighbours whose
longest common prefix is shorter than n, and the right special factors of
length n are the branching nodes of depth n in the trie of the sorted
words.  The same count on the sorted reversed factors gives the left special
factors, provided the longest set is closed under suffixes; equal C(n) in
both views certifies it, since the n-suffixes are among the n-factors.  A
request whose texts would exceed ``TEXT_CAP`` letters, or whose longest
factors would pass ``FACTOR_BYTES_CAP`` stored bytes, raises BudgetExceeded
before anything is built.  The structural classifier is the authority on
affineness; enumeration is the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

from .errors import BudgetExceeded, LetterRangeError, NotApplicable, VerificationFailed
from .numeration import (
    TEXT_CAP,
    RenyiExpansion,
    _segment,
    is_admissible,
    pred_gap_letter,
    radix_rank,
    value_of,
)
from .substitution import _image_bytes, fixed_point_prefix, j_indices
from .words import Word, borders, fmt, satisfies_power_condition, word


# ---------------------------------------------------------------------------
# certified factor sets


class PrefixCounts(NamedTuple):
    """Counts read off a set of words of one length L, for n = 0 .. L."""

    complexity: list  # complexity[n] = number of distinct n-prefixes
    special: list  # special[n] = n-prefixes with two or more next letters (n < L)


def _prefix_counts(words, length: int, byteorder: str = "big") -> PrefixCounts:
    """Prefix counts of a non-empty set of distinct words of ``length`` bytes,
    from one sort.  Read little-endian, the words count as reversed."""
    keys = sorted(int.from_bytes(w, byteorder) for w in words)
    bits = 8 * length
    cuts = [0] * length  # neighbour pairs by the length of their common prefix
    special = [0] * length
    open_depths = []  # depths of the branching nodes on the current trie path
    for x, y in zip(keys, keys[1:]):
        lcp = (bits - (x ^ y).bit_length()) >> 3
        cuts[lcp] += 1
        # neighbours meeting at the same depth share the node only when no
        # pair between them meets higher up
        while open_depths and open_depths[-1] > lcp:
            open_depths.pop()
        if not open_depths or open_depths[-1] < lcp:
            open_depths.append(lcp)
            special[lcp] += 1
    return PrefixCounts(list(accumulate(cuts, initial=1)), special)


@dataclass
class FactorLibrary:
    """Factor sets of the fixed point for all lengths up to ``max_len``.

    Only ``longest``, the factors of length ``max_len``, is stored; the
    sorted views and the extension maps of shorter lengths are built when
    first asked for.  Factors are kept as bytes; the public reports convert
    to tuples.  ``prefix_length`` is the total length of the texts
    phi^k(a) phi^k(b) the factors were read from.
    """

    d: RenyiExpansion
    max_len: int
    prefix_length: int
    longest: set  # the factors of length max_len (bytes)
    _extensions: dict = field(default_factory=dict, repr=False)

    @cached_property
    def sorted_view(self) -> PrefixCounts:
        """C(n) and the right special counts, from the sorted factors."""
        return _prefix_counts(self.longest, self.max_len)

    @cached_property
    def reversed_view(self) -> PrefixCounts:
        """C(n) and the left special counts, from the sorted reversed factors.
        Raises VerificationFailed unless ``longest`` is closed under suffixes."""
        view = _prefix_counts(self.longest, self.max_len, "little")
        for n, (suffixes, prefixes) in enumerate(zip(view.complexity, self.sorted_view.complexity)):
            if suffixes != prefixes:
                raise VerificationFailed(
                    "balance",
                    f"factors of length {self.max_len} are not closed under suffixes: "
                    f"{suffixes} suffixes of length {n} against {prefixes} factors",
                )
        return view

    def extensions(self, n: int) -> tuple:
        """(lext, rext): the left and right extension letters of the
        n-factors, 0 <= n < max_len, read off the keys of the right map at
        n + 1 when it is built, else off the (n+1)-prefixes of ``longest``.
        Its key sets, the n-suffixes and n-prefixes of the (n+1)-factors, must
        agree, which certifies sum(#Lext - 1) = C(n+1) - C(n)."""
        maps = self._extensions.get(n)
        if maps is None:
            if not 0 <= n < self.max_len:
                raise ValueError(f"extension maps need 0 <= n < {self.max_len}, not {n}")
            if n + 1 in self._extensions:
                words = self._extensions[n + 1][1]
            elif n + 1 == self.max_len:
                words = self.longest
            else:
                words = {f[:n + 1] for f in self.longest}
            lext, rext = {}, {}
            for f in words:
                lext.setdefault(f[1:], set()).add(f[0])
                rext.setdefault(f[:-1], set()).add(f[-1])
            if lext.keys() != rext.keys():
                raise VerificationFailed("balance", f"the {n}-suffixes of the factors of "
                                         f"length {n + 1} are not their {n}-prefixes")
            maps = self._extensions[n] = (lext, rext)
        return maps


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
    max_len - 1 letters long, the shorter ones as their prefixes.  Raises
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
    images = _image_bytes(d)
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
    blocks = [bytes([a]) for a in range(d.m)]
    for _ in range(k):
        blocks = [b"".join(blocks[c] for c in im) for im in images]
    # a window of phi^k(a) phi^k(b) lies in one block or starts in the last
    # max_len - 1 letters of phi^k(a); every letter occurs in L2 (phi is
    # primitive), and every block is at least max_len - 1 letters long
    edge = max_len - 1
    heads = [block[:edge] for block in blocks]
    tails = [block[len(block) - edge:] for block in blocks]
    texts = chain(((block, len(block) - edge) for block in blocks),
                  ((tails[a] + heads[b], edge) for a, b in pairs))
    longest = set()
    for text, windows in texts:
        longest.update(text[i:i + max_len] for i in range(windows))
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


@dataclass
class ComplexityProfile:
    """C(n) and its first difference over 1..n_max, with provenance."""

    d: RenyiExpansion
    n_max: int
    values: list  # C(1), ..., C(n_max)
    deltas: list  # C(2)-C(1), ..., C(n_max)-C(n_max-1)
    prefix_length_used: int

    def c(self, n: int) -> int:
        return self.values[n - 1]

    def to_json(self):
        return {
            "d": fmt(self.d.digits),
            "n_max": self.n_max,
            "complexity": self.values,
            "deltas": self.deltas,
            "prefix_length_used": self.prefix_length_used,
        }


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


@dataclass
class SpecialFactorReport:
    """Left/right special factors of one length, read off an extension map
    certified to satisfy sum(#Lext - 1) == C(n+1) - C(n)."""

    d: RenyiExpansion
    n: int
    left_special: dict  # Word -> sorted tuple of extension letters
    right_special: dict
    bispecial: list
    c_n: int
    c_n1: int
    prefix_length_used: int

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
    lext, rext = lib.extensions(n)
    left = {tuple(w): tuple(sorted(e)) for w, e in lext.items() if len(e) >= 2}
    right = {tuple(w): tuple(sorted(e)) for w, e in rext.items() if len(e) >= 2}
    bis = sorted(set(left) & set(right))
    c_n1 = sum(len(e) for e in rext.values())
    return SpecialFactorReport(d, n, left, right, bis, len(rext), c_n1, lib.prefix_length)


def maximal_left_special(d: RenyiExpansion, bound: int) -> list:
    """All maximal left special factors of length <= bound.

    A left special factor is maximal when no one-letter right extension is
    left special again.  It is right special: were a the only right letter
    of w, then for each left letter b of w the factor bw would extend right
    by a alone, so b would be a left letter of wa, and wa left special.
    """
    if bound < 1:
        raise ValueError("length bound must be at least 1")
    lib = factor_library(d, bound + 2)
    out = []
    # downwards, so that each extension map is read off the next longer one
    next_lext = lib.extensions(bound + 1)[0]
    for n in range(bound, 0, -1):
        lext, rext = lib.extensions(n)
        for w, e in lext.items():
            if len(e) >= 2 and all(len(next_lext[w + bytes([a])]) < 2 for a in rext[w]):
                out.append(tuple(w))
        next_lext = lext
    return sorted(out, key=lambda w: (len(w), w))


@dataclass(frozen=True)
class Trident:
    """A factor with one left special extension and two non-special
    extensions whose unique left extensions differ."""

    word: Word
    rooted: int
    teeth: tuple  # (y, z), y < z, neither extension left special
    teeth_lext: tuple  # the corresponding unique left-extension letters

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
    out = []
    # downwards, so that each extension map is read off the next longer one
    for n in range(bound, -1, -1):
        lext_next = lib.extensions(n + 1)[0]
        for w, right in lib.extensions(n)[1].items():
            if len(right) < 3:  # one rooted tooth and two plain ones
                continue
            rooted = []
            plain = []
            for a in sorted(right):
                ext = lext_next[w + bytes([a])]
                if len(ext) >= 2:
                    rooted.append(a)
                else:
                    plain.append((a, next(iter(ext))))
            if not rooted or len(plain) < 2:
                continue
            for x in rooted:
                for i in range(len(plain)):
                    for k in range(i + 1, len(plain)):
                        (y, ly), (z, lz) = plain[i], plain[k]
                        if ly != lz:
                            out.append(Trident(tuple(w), x, (y, z), (ly, lz)))
    return sorted(out, key=lambda t: (len(t.word), t.word, t.rooted, t.teeth))


# ---------------------------------------------------------------------------
# affineness


@dataclass
class OracleCheck:
    """Enumeration cross-check of the structural verdict."""

    agrees: bool
    first_excess_n: int | None
    profile: ComplexityProfile

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


@dataclass
class Classification:
    """Structural affineness verdict for the fixed point of the base."""

    d: RenyiExpansion
    affine: bool
    slope: int | None = None
    intercept: int | None = None
    reason: str | None = None  # "tm_not_one" | "fractional_power"
    # shortest border, for the fractional power case; the witness bundle's
    # p is the power of it chosen by construct_witness
    p: Word | None = None
    evidence: Word | None = None  # a known non-prefix left special factor
    oracle: OracleCheck | None = None

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

    With ``oracle_n`` the verdict is cross-checked against enumeration:
    affine on the computed range means the first difference of complexity is
    identically m - 1.  A one-letter alphabet raises LetterRangeError.
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
        cls.oracle = OracleCheck((excess is None) == cls.affine, excess, prof)
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
        bundle = construct_witness(d)
        body["witness"] = {
            "bundle": bundle.to_json(),
            "verification": verify_witness(d, bundle).to_json(),
        }
    else:
        body["witness"] = None
    if prof is not None and oracle_n >= 2:
        # the cache may hold a longer library; its counts agree below oracle_n
        lib = factor_library(d, oracle_n)
        body["specials"] = {
            "lengths": list(range(1, oracle_n)),
            "left_special_counts": lib.reversed_view.special[1:oracle_n],
            "right_special_counts": lib.sorted_view.special[1:oracle_n],
        }
    else:
        body["specials"] = None
    return body


# ---------------------------------------------------------------------------
# the gap inventory


@dataclass
class GapInventoryReport:
    """Factors of the shape X 0^r Y (X, Y nonzero) against the three
    structural families; a discrepancy indicates an implementation bug."""

    d: RenyiExpansion
    expected: set
    observed: set
    longest_zero_run: int
    prefix_length_used: int

    @property
    def missing(self) -> set:
        return self.expected - self.observed

    @property
    def extra(self) -> set:
        return self.observed - self.expected

    @property
    def ok(self) -> bool:
        return self.expected == self.observed

    def to_json(self):
        return {
            "d": fmt(self.d.digits),
            "expected": sorted(fmt(w) for w in self.expected),
            "observed": sorted(fmt(w) for w in self.observed),
            "missing": sorted(fmt(w) for w in self.missing),
            "extra": sorted(fmt(w) for w in self.extra),
            "longest_zero_run": self.longest_zero_run,
            "ok": self.ok,
            "prefix_length_used": self.prefix_length_used,
        }


def expected_gap_inventory(d: RenyiExpansion) -> set:
    """The three families of X 0^r Y factors:
    j_k 0^(t_k) k for 2 <= k <= m-1, k 0^(t_1) 1 for 1 <= k <= m-1, and
    j_m 0^(t_1 + t_m) 1."""
    t = d.digits
    m = d.m
    j = j_indices(d)
    fam = set()
    for k in range(2, m):
        fam.add((j[k],) + (0,) * t[k - 1] + (k,))
    for k in range(1, m):
        fam.add((k,) + (0,) * t[0] + (1,))
    fam.add((j[m],) + (0,) * (t[0] + t[m - 1]) + (1,))
    return fam


def verify_gap_inventory(d: RenyiExpansion) -> GapInventoryReport:
    """Extract every X 0^r Y factor and compare."""
    need = d.t1 + d.digits[-1] + 2
    lib = factor_library(d, need)
    observed = set()
    zero_run = 0
    # every factor of length n <= need is an n-prefix of a longest factor
    for f in lib.longest:
        for n in range(1, need + 1):
            g = f[:n]
            if n >= 2 and g[0] and g[-1] and not any(g[1:-1]):
                observed.add(tuple(g))
            if not any(g):
                zero_run = max(zero_run, n)
    return GapInventoryReport(d, expected_gap_inventory(d), observed, zero_run, lib.prefix_length)


# ---------------------------------------------------------------------------
# the non-affine witness


@dataclass(frozen=True)
class WitnessBundle:
    """Data of the witness construction for a base failing the power condition.

    The digit word factors as p^r p' q p 1 with p the border of
    t_1 ... t_(m-1) chosen by ``construct_witness`` (a power of the shortest
    border), r maximal, p' a proper prefix of p of length j, and q starting
    below the digit p_(j+1).  c is the longest common suffix of p p' q and
    p' q p, h1/h2 the distinct digits preceding it, h their minimum, and
    a_pad = r|p| + j + 1 the number of zeros that follow the digit-wise
    differences in x1 and x2.  z, x1 and x2 carry no leading zeros.
    """

    d: RenyiExpansion
    p: Word
    r: int
    p_prime: Word
    q: Word
    c: Word
    h1: int
    h2: int
    h: int
    a_pad: int
    z: Word
    x1: Word
    x2: Word

    def to_json(self):
        return {
            "d": fmt(self.d.digits),
            "p": fmt(self.p),
            "r": self.r,
            "p_prime": fmt(self.p_prime),
            "q": fmt(self.q),
            "c": fmt(self.c),
            "h1": self.h1,
            "h2": self.h2,
            "h": self.h,
            "a_pad": self.a_pad,
            "z": fmt(self.z),
            "x1": fmt(self.x1),
            "x2": fmt(self.x2),
        }


def _digitwise_sub(u: Word, v: Word) -> Word:
    """Right-aligned digit-wise subtraction; no borrows may occur."""
    if len(v) > len(u):
        raise VerificationFailed("decomposition", "subtrahend longer than minuend")
    v = (0,) * (len(u) - len(v)) + v
    out = []
    for a, b in zip(u, v):
        if b > a:
            raise VerificationFailed("decomposition", f"digit-wise borrow in {fmt(u)} - {fmt(v)}")
        out.append(a - b)
    return tuple(out)


def _drop_leading_zeros(y: Word) -> Word:
    """The admissible spelling of the beta-integer with digits y."""
    return y[next((i for i, a in enumerate(y) if a), len(y)):]


def construct_witness(d: RenyiExpansion) -> WitnessBundle:
    """Build the beta-integers z, x1, x2 witnessing a non-prefix left
    special factor, for a base with t_m = 1 whose digit prefix
    w = t_1 ... t_(m-1) has a border but is not a proper power.

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
    b b the rule picks p = b.  The remaining conditions are not derived
    here: the admissibility of z, x1 and x2 is checked below, and
    ``verify_witness`` checks conditions (i)-(iv).
    """
    cls = classify_affine(d)
    if cls.affine:
        raise NotApplicable("affine")
    if cls.reason == "tm_not_one":
        raise NotApplicable("tm_not_one")
    w = d.digits[:-1]
    b = p = cls.p
    while w[-len(b + p):] == b + p:
        p = b + p
    s = len(p)
    r = 1
    while w[r * s:(r + 1) * s] == p:
        r += 1
    rest = w[r * s:]
    j = 0
    while j < min(len(rest), s) and rest[j] == p[j]:
        j += 1
    p_prime = p[:j]
    # p is a border, so w == p^r p' q p once q is non-empty; the rest of the
    # structure comes from the Parry condition: check rather than trust
    q = w[r * s + j:len(w) - s]
    if not q:
        raise VerificationFailed("decomposition", "q must be non-empty")
    if q[0] >= p[j]:
        raise VerificationFailed("decomposition", "q must start below the next border digit")
    u1 = p + p_prime + q
    u2 = p_prime + q + p
    if u1 == u2:
        raise VerificationFailed("decomposition", "a proper power would be classified affine")
    k = 0
    while u1[len(u1) - 1 - k] == u2[len(u2) - 1 - k]:
        k += 1
    c = u1[len(u1) - k:]
    h1, h2 = u1[len(u1) - 1 - k], u2[len(u2) - 1 - k]
    if len(c) > len(p) + len(q) - 1:
        raise VerificationFailed("decomposition", "common suffix too long")
    h = min(h1, h2)
    a_pad = r * s + j + 1
    hc = (h,) + c
    z = _drop_leading_zeros(hc + w[:a_pad])  # w[:a_pad] == p^r p' q_1
    x1 = _drop_leading_zeros(_digitwise_sub(w[:len(w) - s], hc) + (0,) * a_pad)
    x2 = _drop_leading_zeros(_digitwise_sub(w, hc) + (0,) * a_pad)
    for name, y in (("z", z), ("x1", x1), ("x2", x2)):
        if not is_admissible(d, y):
            raise VerificationFailed("admissible", f"witness component {name} must be admissible")
    return WitnessBundle(d, p, r, p_prime, q, c, h1, h2, h, a_pad, z, x1, x2)


@dataclass
class WitnessVerification:
    """Outcome of checking the four witness conditions; produced only when
    all of them hold."""

    bundle: WitnessBundle
    span: int  # number of gaps in [0, z]
    coding: Word  # shared coding of [0,z], [x1,x1+z], [x2,x2+z]
    w0: Word  # the non-prefix left special factor
    x1_end: Word
    x2_end: Word
    pred_letters: tuple
    succ_letter_z: int  # u[span], the match length of z

    def to_json(self):
        return {
            "span": self.span,
            "coding": fmt(self.coding),
            "w0": fmt(self.w0),
            "x1_end": fmt(self.x1_end),
            "x2_end": fmt(self.x2_end),
            "pred_letters": list(self.pred_letters),
            "succ_letter_z": self.succ_letter_z,
            "conditions": {"i": True, "ii": True, "iii": True, "iv": True},
        }


def verify_witness(d: RenyiExpansion, bundle: WitnessBundle) -> WitnessVerification:
    """Check the four conditions making w0 = u[:span] 0 a non-prefix left
    special factor of the fixed point u, with span = rank(z).

    u is the gap coding of Z_beta+ read from 0, so u[:span] codes [0, z] and
    u[span] is the gap after z.  (i) and (iii): the walk of span gaps from
    x1, and the one from x2, reads u[:span] and ends, exactly at x + z, in
    the automaton state 0, so w0 is read after x1 and after x2.  (ii): the
    gaps before x1 and x2 differ, so w0 has two left letters.  (iv):
    u[span], the match length of z, is not 0, so w0 is not a prefix.  All
    four are guaranteed; a failure raises VerificationFailed.
    """
    z, x1, x2 = bundle.z, bundle.x1, bundle.x2
    span = radix_rank(d, z)
    u = fixed_point_prefix(d, span + 1)
    coding = u[:span]
    zval = value_of(d, z)
    ends = []
    for name, x in (("x1", x1), ("x2", x2)):
        letters, end, state = _segment(d, x, span)
        if letters != coding:
            raise VerificationFailed("i", f"coding from {name} differs from coding from 0")
        if not (value_of(d, end) - value_of(d, x) - zval).is_zero():
            raise VerificationFailed("i", f"segment from {name} does not end at {name}+z")
        if state != 0:
            raise VerificationFailed("iii", f"successor gap at {name}+z is not 1")
        ends.append(end)
    pred1, pred2 = pred_gap_letter(d, x1), pred_gap_letter(d, x2)
    if pred1 == pred2:
        raise VerificationFailed("ii", "x1 and x2 have equal predecessor gaps")
    k = u[span]
    if k == 0:
        raise VerificationFailed("iv", "successor gap at z is 1")
    # the match of z covers its tail t_1 ... t_(a_pad) and stops before h
    if not (bundle.a_pad <= k <= bundle.a_pad + len(bundle.c) < d.m):
        raise VerificationFailed("iv", f"match length {k} violates the index bounds")
    return WitnessVerification(
        bundle=bundle,
        span=span,
        coding=coding,
        w0=coding + (0,),
        x1_end=ends[0],
        x2_end=ends[1],
        pred_letters=(pred1, pred2),
        succ_letter_z=k,
    )
