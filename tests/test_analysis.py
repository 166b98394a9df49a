"""Complexity profiles, special factors, tridents, affineness, witnesses."""

import dataclasses
from itertools import combinations, dropwhile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import radix_oracle
from factor_oracle import whole_block_factors
from gap_oracle import expected_gap_inventory, verify_gap_inventory
from parryscope import analysis, numeration
from parryscope.analysis import (
    TEXT_CAP,
    FactorLibrary,
    Trident,
    WitnessBundle,
    _prefix_counts,
    classify_affine,
    clear_factor_cache,
    complexity_profile,
    construct_witness,
    factor_library,
    find_tridents,
    full_report,
    maximal_left_special,
    special_factors,
    verify_witness,
)
from parryscope.cli import CorpusSpec, main
from parryscope.errors import (
    BudgetExceeded,
    LetterRangeError,
    NotApplicable,
    ParryViolation,
    TrailingZeroError,
    VerificationFailed,
)
from parryscope.numeration import coding_of_segment, radix_rank, validate_renyi, value_of
from parryscope.substitution import build_substitution, fixed_point_prefix
from parryscope.words import fmt, word

GOLDEN = validate_renyi("11")
D2121 = validate_renyi("2121")

# the emitted non-prefix left special factor for 2121, derived by the
# construction and confirmed below by direct enumeration
W0_2121 = word("0010010200100100")


# --- complexity ----------------------------------------------------------------


def test_golden_complexity_is_minimal():
    prof = complexity_profile(GOLDEN, 30)
    assert prof.values == [n + 1 for n in range(1, 31)]


def test_arnoux_rauzy_slope_two():
    prof = complexity_profile(validate_renyi("111"), 30)
    assert prof.values == [2 * n + 1 for n in range(1, 31)]


def test_2121_exceeds_minimal_slope():
    prof = complexity_profile(D2121, 20)
    assert any(dc > 3 for dc in prof.deltas)
    # the first excess is where the non-prefix left special factor appears
    first = next(n for n, dc in enumerate(prof.deltas, start=1) if dc > 3)
    assert first == len(W0_2121)


def test_profile_invariants():
    for base in ("11", "2121", "22", "211"):
        d = validate_renyi(base)
        prof = complexity_profile(d, 25)
        m = d.m
        assert prof.c(1) == m
        assert all(dc >= m - 1 for dc in prof.deltas)
        assert all(prof.values[i] <= prof.values[i + 1] for i in range(24))
        for n in range(1, 13):
            for k in range(1, 13):
                assert prof.c(n + k) <= prof.c(n) * prof.c(k)


def test_dominant_first_digit_bounds():
    # with t_1 strictly above the interior digits, (m-1)n + 1 <= C(n) <= mn
    for base in ("11", "22", "211", "201", "2112"):
        d = validate_renyi(base)
        prof = complexity_profile(d, 30)
        m = d.m
        assert all((m - 1) * n + 1 <= prof.c(n) <= m * n for n in range(1, 31))


# --- the certified factor engine -------------------------------------------------------


def _prefix_scan(digits, length, max_len):
    """Factor sets of lengths 0..max_len, each read off a fixed point prefix
    that is built by iterating the substitution directly."""
    m = len(digits)
    images = [bytes([0] * digits[i] + [i + 1]) for i in range(m - 1)]
    images.append(bytes([0] * digits[-1]))
    u = b"\0"
    while len(u) < length:
        u = b"".join(images[a] for a in u)
    u = u[:length]
    return [{u[i:i + n] for i in range(length - n + 1)} for n in range(max_len + 1)]


def _factor_sets(lib):
    """The factor sets of lengths 0..max_len held by a library: the prefixes
    of its longest factors."""
    return [{f[:n] for f in lib.longest} for n in range(lib.max_len + 1)]


def test_factor_library_matches_long_prefix_scan():
    # every length is read directly from the prefix; on these bases every
    # factor of length 30 occurs before letter 1,500 (before 12,000 for
    # 301002), as measured on prefixes of 2^16 letters
    members, _ = CorpusSpec.parse("m=2..4,digit<=3").members()
    for d, length in [(d, 1 << 11) for d in members] + [(validate_renyi("301002"), 1 << 14)]:
        clear_factor_cache()
        lib = factor_library(d, 30)
        assert _factor_sets(lib) == _prefix_scan(d.digits, length, 30), fmt(d.digits)
        assert lib.prefix_length < TEXT_CAP


def test_factor_library_short_lengths_match_prefix_scan():
    # at max_len 1 no window crosses a block boundary; at 2 the blocks are
    # single letters and every window crosses one
    members, _ = CorpusSpec.parse("m=2..4,digit<=3").members()
    for d in members:
        scan = _prefix_scan(d.digits, 1 << 11, 4)
        for max_len in range(1, 5):
            clear_factor_cache()
            assert _factor_sets(factor_library(d, max_len)) == scan[:max_len + 1], (
                fmt(d.digits), max_len)


def _same_as_whole_blocks(lib):
    return (lib.longest, lib.prefix_length) == whole_block_factors(lib.d, lib.max_len)


def test_joint_reader_equals_the_whole_block_reader():
    # the library opens each block once, at its joints, and reads each
    # distinct text once; the oracle reads every window of the whole texts
    members, _ = CorpusSpec.parse("m=2..6,digit<=3").members()
    assert len(members) == 960
    for d in members:
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
            clear_factor_cache()
            assert _same_as_whole_blocks(factor_library(d, n)), (fmt(d.digits), n)


def test_joint_reader_equals_the_whole_block_reader_on_a_warm_sweep():
    # a warm rebuild reads at the longest length its texts certify
    for d in CorpusSpec.parse("m=2..5,digit<=3").members()[0]:
        clear_factor_cache()
        built = None
        for n in range(1, 46):
            lib = factor_library(d, n)
            if lib is not built:
                built = lib
                assert _same_as_whole_blocks(lib), (fmt(d.digits), n, lib.max_len)


@given(st.lists(st.integers(0, 5), min_size=2, max_size=9), st.integers(1, 80))
@example([1, 0, 0, 0, 0, 0, 0, 0, 1], 80)
@settings(max_examples=150, deadline=None)
def test_joint_reader_equals_the_whole_block_reader_on_random_bases(digits, n):
    try:
        d = validate_renyi(digits)
    except (ParryViolation, TrailingZeroError):
        assume(False)
    clear_factor_cache()
    try:
        lib = factor_library(d, n)
    except BudgetExceeded:
        assume(False)
    assert _same_as_whole_blocks(lib), (fmt(digits), n)


def _extension_maps(sets, n, m):
    """Left and right extension letters of every n-factor, by testing each
    one-letter extension for membership among the (n+1)-factors."""
    letters = [bytes([a]) for a in range(m)]
    lext = {w: {a for a in range(m) if letters[a] + w in sets[n + 1]} for w in sets[n]}
    rext = {w: {a for a in range(m) if w + letters[a] in sets[n + 1]} for w in sets[n]}
    return lext, rext


def _special(extensions):
    """The entries of an extension map with two or more letters, ascending,
    each word a tuple of letters, as ``branches`` gives them."""
    return {tuple(w): tuple(sorted(e)) for w, e in extensions.items() if len(e) >= 2}


def _left_letters(lib, w):
    """The letters a with aw a factor, read off the (|w|+1)-prefixes of the
    longest factors of a library."""
    return {f[0] for f in lib.longest if f[1:len(w) + 1] == w}


def test_branches_match_prefix_scan():
    # on prefixes of 2^16 letters, every factor of length 30 occurs before
    # letter 1,500 on m=2..4,digit<=3, before 6,600 on m=5..6,digit<=2 and
    # before 12,000 on 301002
    cases = [(d, 1 << 11) for d in CorpusSpec.parse("m=2..4,digit<=3").members()[0]]
    cases += [(d, 1 << 13) for d in CorpusSpec.parse("m=5..6,digit<=2").members()[0]]
    cases.append((validate_renyi("301002"), 1 << 14))
    for d, length in cases:
        sets = _prefix_scan(d.digits, length, 30)
        clear_factor_cache()
        lib = factor_library(d, 30)
        for n in range(30):
            lext, rext = _extension_maps(sets, n, d.m)
            assert lib.reversed_view.branches(n) == _special(lext), (fmt(d.digits), n)
            assert lib.sorted_view.branches(n) == _special(rext), (fmt(d.digits), n)


SPECIALS_SESSION_BASES = ("11", "22", "111", "211", "201", "2112", "321", "2121", "21211")


def test_growing_sweep_rebuilds_once_per_text(monkeypatch):
    # a rebuild for a cached base reads its texts at the longest length they
    # certify, so a growing sweep builds one library per text length, and
    # every report equals the one from a cold cache
    builds = []

    def counting(d):
        builds.append(d)
        return build_substitution(d)

    monkeypatch.setattr(analysis, "build_substitution", counting)
    for base in SPECIALS_SESSION_BASES:
        d = validate_renyi(base)
        clear_factor_cache()
        builds.clear()
        sweep = [special_factors(d, n) for n in range(1, 26)]
        assert len(builds) == len({r.prefix_length_used for r in sweep}), base
        for n, report in enumerate(sweep, 1):
            clear_factor_cache()
            assert report == special_factors(d, n), (base, n)


def test_a_session_sorts_each_library_at_most_twice(monkeypatch):
    # every inventory reads the two sorted views of the library it is
    # handed, so a session sorts each library it builds once per view
    builds, sorts = [], []

    def counting(d):
        builds.append(d)
        return build_substitution(d)

    def sorting(*args):
        sorts.append(1)
        return _prefix_counts(*args)

    monkeypatch.setattr(analysis, "build_substitution", counting)
    monkeypatch.setattr(analysis, "_prefix_counts", sorting)
    clear_factor_cache()
    for n in range(1, 26):
        special_factors(D2121, n)
    maximal_left_special(D2121, 40)
    find_tridents(D2121, 20)
    for n in range(25, 0, -1):
        special_factors(D2121, n)
    assert builds and len(sorts) <= 2 * len(builds)


def test_oversized_request_fails_before_building():
    clear_factor_cache()
    with pytest.raises(BudgetExceeded):
        complexity_profile(D2121, 10**8)
    with pytest.raises(BudgetExceeded):
        special_factors(D2121, 10**6)


def test_stored_bytes_cap_is_exact(monkeypatch):
    # 22 has C(20) = 25 against the lower bound (m-1) 20 + 1 = 21: a cap
    # below the bound refuses before building, one below the bytes read
    # refuses while scanning, and the bytes read fit the cap exactly
    d = validate_renyi("22")
    for cap, match in ((21 * 20 - 1, "need at least"), (25 * 20 - 1, "25 factors")):
        clear_factor_cache()
        monkeypatch.setattr(analysis, "FACTOR_BYTES_CAP", cap)
        with pytest.raises(BudgetExceeded, match=match):
            factor_library(d, 20)
    monkeypatch.setattr(analysis, "FACTOR_BYTES_CAP", 25 * 20)
    clear_factor_cache()
    assert len(factor_library(d, 20).longest) == 25
    # a warm rebuild extends to the certified length 45 only within the cap
    clear_factor_cache()
    factor_library(d, 19)
    assert factor_library(d, 20).max_len == 20


def _naive_prefix_counts(words, length):
    """Distinct n-prefixes, and the n-prefixes followed by two or more
    letters, with those letters."""
    complexity = [len({w[:n] for w in words}) for n in range(length + 1)]
    branches = []
    for n in range(length):
        following = {}
        for w in words:
            following.setdefault(w[:n], set()).add(w[n])
        branches.append(_special(following))
    return complexity, branches


@st.composite
def _equal_length_words(draw):
    # letters anywhere in 0..255, so that neighbours may differ in the top bit
    alphabet = sorted(draw(st.sets(st.integers(0, 255), min_size=1, max_size=4)))
    length = draw(st.integers(0, 9))
    letter = st.sampled_from(alphabet)
    words = draw(st.sets(st.lists(letter, min_size=length, max_size=length).map(bytes),
                         min_size=1, max_size=60))
    return words, length


@given(_equal_length_words())
def test_sorted_view_counts_match_naive_counts(case):
    words, length = case
    complexity, branches = _naive_prefix_counts(words, length)
    view = _prefix_counts(words, length)
    assert view.complexity == complexity
    assert list(map(len, view.nodes)) == list(map(len, branches))
    assert [view.branches(n) for n in range(length)] == branches
    # read little-endian, the branches are suffixes with the letters before them
    complexity, branches = _naive_prefix_counts({w[::-1] for w in words}, length)
    view = _prefix_counts(words, length, "little")
    assert view.complexity == complexity
    assert list(map(len, view.nodes)) == list(map(len, branches))
    assert [{w[::-1]: e for w, e in view.branches(n).items()} for n in range(length)] == branches


def test_sorted_views_match_factor_sets_and_extension_maps():
    # factors with three or more extensions occur on these bases
    bases = CorpusSpec.parse("m=5..6,digit<=2").members()[0] + [validate_renyi("301002")]
    widest = 0
    for d in bases:
        clear_factor_cache()
        values = complexity_profile(d, 30).values
        lib = factor_library(d, 30)
        sets = _factor_sets(lib)
        assert values == [len(f) for f in sets[1:31]], fmt(d.digits)
        left = list(map(len, lib.reversed_view.nodes))
        right = list(map(len, lib.sorted_view.nodes))
        for n in range(1, 30):
            lext, rext = _extension_maps(sets, n, d.m)
            assert left[n] == sum(len(e) >= 2 for e in lext.values()), (fmt(d.digits), n)
            assert right[n] == sum(len(e) >= 2 for e in rext.values()), (fmt(d.digits), n)
            widest = max(widest, *map(len, lext.values()), *map(len, rext.values()))
        specials = full_report(d, oracle_n=30)["specials"]
        assert specials["left_special_counts"] == left[1:30], fmt(d.digits)
        assert specials["right_special_counts"] == right[1:30], fmt(d.digits)
    assert widest >= 3


def _tampered_2121():
    """The 12-factors of 2121 without one factor w whose 11-prefix is then
    no longer a prefix of a factor while its 11-suffix still is one."""
    clear_factor_cache()
    lib = factor_library(D2121, 12)
    lext, rext = _extension_maps(_factor_sets(lib), 11, D2121.m)
    w = min(f for f in lib.longest if len(rext[f[:-1]]) == 1 and len(lext[f[1:]]) >= 2)
    return lib, lib.longest - {w}


def test_the_constructor_certifies_suffix_closure():
    lib, tampered = _tampered_2121()
    with pytest.raises(VerificationFailed) as err:
        FactorLibrary(D2121, 12, lib.prefix_length, tampered)
    assert err.value.condition == "balance"
    assert lib.reversed_view.complexity == lib.sorted_view.complexity


def test_no_consumer_sees_a_library_not_closed_under_suffixes():
    # a tampered library is refused when it is made, so no consumer can be
    # handed one; the cache keeps the certified library
    lib, tampered = _tampered_2121()
    with pytest.raises(VerificationFailed) as err:
        FactorLibrary(D2121, 12, lib.prefix_length, tampered)
    assert err.value.condition == "balance"
    assert analysis._LIB_CACHE == {D2121.digits: lib}
    for consume in (lambda: special_factors(D2121, 11),
                    lambda: maximal_left_special(D2121, 10),
                    lambda: find_tridents(D2121, 9)):
        consume()
    assert analysis._LIB_CACHE == {D2121.digits: lib}


@st.composite
def _cyclic_word(draw):
    letters = draw(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    return bytes(letters), draw(st.integers(1, 12))


@given(_cyclic_word())
def test_suffix_closure_lemma_on_cyclic_windows(case):
    # the windows of a cyclic word are closed under suffixes, so they must
    # construct and satisfy both claims of the lemma at every n < L; dropping
    # one window must be refused exactly when it unbalances the (L-1) sets
    text, length = case
    cyclic = text * (length // len(text) + 2)
    windows = {cyclic[i:i + length] for i in range(len(text))}
    lib = FactorLibrary(D2121, length, 0, windows)
    for n in range(length):
        prefixes = {f[:n] for f in windows}
        assert {f[length - n:] for f in windows} == prefixes
        assert {f[1:n + 1] for f in windows} == prefixes
    complexity = lib.reversed_view.complexity
    assert complexity == lib.sorted_view.complexity
    sets = _factor_sets(lib)
    for n in range(length):
        lext, rext = _extension_maps(sets, n, 3)
        assert lext.keys() == rext.keys()
        assert sum(len(e) - 1 for e in lext.values()) == complexity[n + 1] - complexity[n]
        for view in (lib.reversed_view, lib.sorted_view):
            assert sum(len(e) - 1 for e in view.branches(n).values()) == (
                complexity[n + 1] - complexity[n])
    for w in windows:
        rest = windows - {w}
        balanced = {f[1:] for f in rest} == {f[:-1] for f in rest}
        if balanced:
            FactorLibrary(D2121, length, 0, rest)
        else:
            with pytest.raises(VerificationFailed) as err:
                FactorLibrary(D2121, length, 0, rest)
            assert err.value.condition == "balance"


def test_branches_reject_lengths_outside_the_library():
    clear_factor_cache()
    lib = factor_library(D2121, 5)
    for view in (lib.sorted_view, lib.reversed_view):
        for n in (-1, 5, 6):
            with pytest.raises(ValueError):
                view.branches(n)
        assert view.branches(0) == {(): tuple(range(D2121.m))}
    sets = _factor_sets(lib)
    lext, rext = _extension_maps(sets, 4, D2121.m)
    assert lib.reversed_view.branches(4) == _special(lext)
    assert lib.sorted_view.branches(4) == _special(rext)


def test_decoded_levels_are_kept_for_the_next_reader():
    # find_tridents reads the left special levels that maximal_left_special
    # has just decoded, and decodes none again
    clear_factor_cache()
    maximal_left_special(D2121, 20)
    view = factor_library(D2121, 22).reversed_view
    decoded = dict(view.levels)
    assert sorted(decoded) == list(range(1, 22))
    find_tridents(D2121, 20)
    assert view.levels.keys() == decoded.keys()
    assert all(view.branches(n) is level for n, level in decoded.items())


def _warm_session(corrupt):
    """special_factors at 1 .. 20 and maximal_left_special at 20 on one warm
    library of 2121, built cold; with ``corrupt``, each answer is emptied
    once it is read, and all of them are asked again."""
    clear_factor_cache()
    lib = factor_library(D2121, 22)
    reports = [special_factors(D2121, n) for n in range(1, 21)]
    maximal = maximal_left_special(D2121, 20)
    if corrupt:
        for report in reports:
            report.left_special.clear()
            report.right_special.clear()
        maximal.clear()
        reports = [special_factors(D2121, n) for n in range(1, 21)]
        maximal = maximal_left_special(D2121, 20)
    assert factor_library(D2121, 22) is lib and lib.reversed_view.levels
    return reports, maximal


def test_a_report_cannot_corrupt_the_warm_cache():
    # the reports copy the kept levels, so emptying a report's maps or the
    # list of maximal factors leaves the next answers as a cold cache gives
    assert _warm_session(corrupt=True) == _warm_session(corrupt=False)


# --- special factors --------------------------------------------------------------


def test_golden_single_left_special_per_length():
    rep = special_factors(GOLDEN, 2)
    assert rep.left_special == {word("01"): (0, 1)}
    for n in range(1, 12):
        rep = special_factors(GOLDEN, n)
        assert len(rep.left_special) == 1


def test_short_left_specials_are_prefixes():
    for base in ("11", "2121", "22", "211", "3202"):
        d = validate_renyi(base)
        u = fixed_point_prefix(d, 64)
        for n in range(1, d.t1 + 1):
            rep = special_factors(d, n)
            for w in rep.left_special:
                assert w == u[:n]


def test_left_extension_balance():
    # sum of (#Lext - 1) equals the complexity increment, exactly
    for base in ("11", "2121", "22"):
        d = validate_renyi(base)
        for n in range(1, 26):
            rep = special_factors(d, n)
            assert rep.delta == sum(len(e) - 1 for e in rep.left_special.values())


def test_prefix_left_extensions_are_full():
    # every prefix of the fixed point is left special with all m extensions
    for base in ("11", "2121", "211"):
        d = validate_renyi(base)
        u = fixed_point_prefix(d, 12)
        for n in range(1, 11):
            rep = special_factors(d, n)
            assert rep.left_special.get(u[:n]) == tuple(range(d.m))


def test_image_of_left_special_is_left_special():
    # the substitution lifts left special factors preserving extension counts
    for base in ("11", "2121", "22"):
        d = validate_renyi(base)
        s = build_substitution(d)
        for n in range(1, 6):
            rep = special_factors(d, n)
            for w, ext in rep.left_special.items():
                im = tuple(x for a in w for x in s.images[a])
                lifted = special_factors(d, len(im)).left_special.get(im)
                assert lifted is not None and len(lifted) == len(ext)


def test_affine_power_case_has_one_left_and_p_right_specials():
    # base 21211 = (21)^2 1: one left special and |p| = 2 right specials per
    # length (at length 1 the lone right special letter carries the full
    # extension set instead)
    d = validate_renyi("21211")
    for n in range(2, 21):
        rep = special_factors(d, n)
        assert len(rep.left_special) == 1
        assert len(rep.right_special) == 2
    rep1 = special_factors(d, 1)
    assert len(rep1.left_special) == 1 and len(rep1.right_special) == 1


def test_report_special_counts_match_extension_maps():
    # the counts of full_report against the extension maps, on the 66 bases
    # of m=2..4,digit<=2 and m=2..4,digit<=3,tm>=2
    bases = {d.digits: d for spec in ("m=2..4,digit<=2", "m=2..4,digit<=3,tm>=2")
             for d in CorpusSpec.parse(spec).members()[0]}
    assert len(bases) == 66
    for d in bases.values():
        clear_factor_cache()
        specials = full_report(d, oracle_n=30)["specials"]
        sets = _factor_sets(factor_library(d, 30))
        assert specials["lengths"] == list(range(1, 30))
        for n, left, right in zip(range(1, 30), specials["left_special_counts"],
                                  specials["right_special_counts"]):
            lext, rext = _extension_maps(sets, n, d.m)
            assert left == sum(len(e) >= 2 for e in lext.values()), (fmt(d.digits), n)
            assert right == sum(len(e) >= 2 for e in rext.values()), (fmt(d.digits), n)


# --- maximal left special factors ---------------------------------------------------


def test_affine_cases_have_no_maximal_left_special():
    assert maximal_left_special(GOLDEN, 30) == []
    assert maximal_left_special(validate_renyi("21211"), 20) == []


def test_large_last_digit_produces_zero_block_maximal():
    d = validate_renyi("22")
    found = maximal_left_special(d, 6)
    assert word("000") in found  # 0^(t1 + tm - 1)


def test_2121_maximal_left_special_is_the_witness_word():
    assert maximal_left_special(D2121, 40) == [W0_2121]


# --- tridents -------------------------------------------------------------------------


def test_no_tridents_over_two_letters():
    assert find_tridents(GOLDEN, 20) == []


def test_2121_tridents():
    tridents = find_tridents(D2121, 40)
    assert tridents
    m = D2121.m
    assert any(t.rooted not in (0, m - 1) for t in tridents)
    for t in tridents:
        y, z = t.teeth
        assert len({t.rooted, y, z}) == 3
        assert t.teeth_lext[0] != t.teeth_lext[1]


def _brute_force_tridents(d, bound, sets):
    """Tridents by their definition, from the factor sets of a prefix: a
    factor w with letters x, y, z such that wx is left special while wy and
    wz each have one left extension, and those two differ."""
    def lext(u):
        return {a for a in range(d.m) if bytes([a]) + u in sets[len(u) + 1]}

    out = []
    for n in range(bound + 1):
        for w in sets[n]:
            ext = {a: lext(w + bytes([a])) for a in range(d.m) if w + bytes([a]) in sets[n + 1]}
            for x, rooted in ext.items():
                if len(rooted) < 2:
                    continue
                for y, z in combinations(sorted(ext), 2):
                    if len(ext[y]) == len(ext[z]) == 1 and ext[y] != ext[z]:
                        (ly,), (lz,) = ext[y], ext[z]
                        out.append(Trident(tuple(w), x, (y, z), (ly, lz)))
    return out


def test_tridents_match_brute_force_search():
    # on prefixes of 2^16 letters, every factor of length 14 of these bases
    # occurs before letter 710
    found = 0
    for base in ("2121", "211", "201", "3202", "321", "21211"):
        d = validate_renyi(base)
        expected = _brute_force_tridents(d, 12, _prefix_scan(d.digits, 1 << 11, 14))
        clear_factor_cache()
        got = find_tridents(d, 12)
        assert got == sorted(expected, key=lambda t: (len(t.word), t.word, t.rooted, t.teeth)), base
        found += len(got)
    assert found


def test_maximal_left_specials_match_brute_force_search():
    # a maximal left special factor has two left letters and no left
    # special one-letter extension; each one found is right special too.
    # On prefixes of 2^16 letters, every factor of length 14 of these bases
    # occurs before letter 710 (before letter 35 for 22)
    found = 0
    for base in ("2121", "211", "201", "3202", "321", "21211", "22"):
        d = validate_renyi(base)
        sets = _prefix_scan(d.digits, 1 << 11, 14)

        def lext(u):
            return {a for a in range(d.m) if bytes([a]) + u in sets[len(u) + 1]}

        expected = sorted(
            (tuple(w) for n in range(13) for w in sets[n]
             if len(lext(w)) >= 2
             and all(len(lext(w + bytes([a]))) < 2 for a in range(d.m))),
            key=lambda w: (len(w), w))
        clear_factor_cache()
        got = maximal_left_special(d, 12)
        assert got == expected, base
        for w in got:
            assert sum(bytes(w) + bytes([a]) in sets[len(w) + 1] for a in range(d.m)) >= 2, (base, w)
        found += len(got)
    assert found


def test_rooted_tooth_one_forces_dominant_digits():
    # a trident rooted at letter 1 has t_Y = t_1 for every nonzero tooth Y
    for base in ("2121", "211", "201", "21211", "3202"):
        d = validate_renyi(base)
        for t in find_tridents(d, 20):
            if t.rooted != 1:
                continue
            for a in t.teeth:
                if a != 0:
                    assert d.digits[a - 1] == d.t1, (base, t)


# --- classification ----------------------------------------------------------------------


def test_classifier_examples():
    cls = classify_affine(GOLDEN)
    assert cls.affine and (cls.slope, cls.intercept) == (1, 1)
    cls = classify_affine(validate_renyi("22"))
    assert not cls.affine and cls.reason == "tm_not_one"
    assert cls.evidence == word("000")
    cls = classify_affine(validate_renyi("21211"))
    assert cls.affine and (cls.slope, cls.intercept) == (4, 1)
    cls = classify_affine(D2121)
    assert not cls.affine and cls.reason == "fractional_power" and cls.p == word("2")


def test_an_oracle_checked_report_builds_the_witness_once(monkeypatch, capsys):
    # the predicted first excess and the witness block share one bundle
    calls = []
    construct = analysis.construct_witness
    monkeypatch.setattr(analysis, "construct_witness",
                        lambda d, cls=None: calls.append(d) or construct(d, cls))
    assert main(["classify", "2121", "--oracle-n", "30"]) == 0
    assert len(calls) == 1
    assert '"w0_length": 16' in capsys.readouterr().out


def test_classifier_oracle_agreement():
    for base, n in (("11", 30), ("2121", 20), ("21211", 40), ("111", 30), ("22", 20)):
        cls = classify_affine(validate_renyi(base), oracle_n=n)
        assert cls.oracle.agrees, base
        if not cls.affine:
            assert cls.oracle.first_excess_n is not None


@pytest.mark.parametrize("base, want", [
    ("11", None), ("21211", None), ("22", 3), ("332", 4), ("3202", 4),
    ("2121", 16), ("3231", 45), ("221221", 52), ("3312331", 186),
])
def test_first_excess_is_predicted(base, want):
    assert classify_affine(validate_renyi(base)).first_excess_n == want


@pytest.mark.parametrize("base", ["22", "332", "2121", "3231"])
def test_the_oracle_checks_the_predicted_first_excess(monkeypatch, base):
    d = validate_renyi(base)
    want = classify_affine(d).first_excess_n
    # the differences reach n = want + 1 on this range
    cls = classify_affine(d, oracle_n=want + 2)
    assert cls.oracle.agrees and cls.oracle.first_excess_n == want
    # an excess beyond the range is not looked for
    assert classify_affine(d, oracle_n=want).oracle.agrees
    for shifted in (want - 1, want + 1):
        monkeypatch.setattr(analysis.Classification, "first_excess_n", shifted)
        assert not classify_affine(d, oracle_n=want + 2).oracle.agrees, shifted


def test_scans_agree_where_the_first_excess_lies_beyond_the_range():
    # 3231 has its first excess at 45, and 22, 202, 212, 222 theirs at 3
    for corpus, n in (("m=2..4,digit<=3", "30"), ("m=2..3,digit<=2", "1")):
        assert main(["scan", "--corpus", corpus, "--oracle-n", n]) == 0, corpus


# --- the gap inventory ---------------------------------------------------------------------


def test_gap_inventory_golden():
    rep = verify_gap_inventory(GOLDEN)
    assert rep.ok
    assert rep.observed == {word("101"), word("1001")}


def test_gap_inventory_families():
    expected = {
        "2121": {"102", "1003", "1001", "2001", "3001", "10001"},
        "211": {"102", "1001", "2001", "10001"},
        "201": {"12", "1001", "2001", "20001"},
    }
    for base, exp in expected.items():
        d = validate_renyi(base)
        assert expected_gap_inventory(d) == {word(s) for s in exp}
        rep = verify_gap_inventory(d)
        assert rep.ok, (base, rep.missing, rep.extra)


def test_longest_zero_run():
    for base in ("11", "2121", "211", "201", "22", "3202"):
        d = validate_renyi(base)
        rep = verify_gap_inventory(d)
        assert rep.longest_zero_run == d.t1 + d.digits[-1]


@pytest.mark.parametrize("base", ["11", "2121", "211", "201", "22", "3202"])
def test_gap_inventory_reads_a_warm_library_like_a_cold_one(base):
    # a cached library may hold factors longer than the inventory needs; only
    # the prefix length read, that of the cached library, may differ
    d = validate_renyi(base)
    analysis.clear_factor_cache()
    cold = verify_gap_inventory(d)
    factor_library(d, 30)
    warm = verify_gap_inventory(d)
    assert warm.prefix_length_used > cold.prefix_length_used
    assert dataclasses.replace(warm, prefix_length_used=cold.prefix_length_used) == cold
    assert warm.ok and warm.longest_zero_run == d.t1 + d.digits[-1]


def test_gap_inventory_names_what_is_missing_and_what_is_extra():
    rep = verify_gap_inventory(D2121)
    tampered = dataclasses.replace(rep, observed=rep.observed - {word("102")} | {word("1002")})
    assert tampered.missing == {word("102")} and tampered.extra == {word("1002")}
    assert not tampered.ok


# --- the witness construction -----------------------------------------------------------------


def test_witness_not_applicable():
    with pytest.raises(NotApplicable) as exc:
        construct_witness(validate_renyi("21211"))
    assert exc.value.reason == "affine"
    with pytest.raises(NotApplicable) as exc:
        construct_witness(validate_renyi("22"))
    assert exc.value.reason == "tm_not_one"


def test_witness_2121_exact_bundle():
    b = construct_witness(D2121)
    assert b.p == word("2")
    assert b.r == 1
    assert b.p_prime == ()
    assert b.q == word("1")
    assert b.c == ()
    assert (b.h1, b.h2, b.h) == (1, 2, 1)
    assert b.a_pad == 2
    assert b.z == word("121")
    assert b.x1 == word("2000")
    assert b.x2 == word("21100")


def test_witness_bundle_json_keys_are_its_fields_in_order():
    body = construct_witness(D2121).to_json()
    assert list(body) == ["d", "p", "r", "p_prime", "q", "c", "h1", "h2", "h", "a_pad",
                          "z", "x1", "x2"]
    assert body["d"] == "2121" and body["p_prime"] == "" and body["h"] == 1


@st.composite
def _fractional_power_bases(draw):
    """A base t_1 ... t_(m-1) 1 with m <= 12 and digits <= 5 whose prefix w
    ends with its first ``border`` digits, at most (m - 2) / 2 of them,
    drawn digit by digit under the Parry condition: a digit is at most the
    digit that follows each prefix the word still ends with.  A forced digit
    above that bound, or a w that the classifier calls affine, is rejected."""
    m = draw(st.integers(4, 12))
    w = [draw(st.integers(1, 5))]
    border = draw(st.integers(1, (m - 2) // 2))
    for i in range(1, m):
        bound = min(w[i - k] for k in range(1, i + 1) if w[k:i] == w[:i - k])
        if i == m - 1:
            a = 1
        elif i >= m - 1 - border:
            a = w[i - (m - 1 - border)]
        else:
            a = draw(st.integers(0, bound))
        assume(a <= bound)
        w.append(a)
    d = validate_renyi(w)
    assume(classify_affine(d).reason == "fractional_power")
    return d


def _right_aligned_sub(u, v):
    out = [a - b for a, b in zip(u, (0,) * (len(u) - len(v)) + v)]
    assert len(v) <= len(u) and min(out) >= 0, (u, v)
    return tuple(dropwhile(lambda a: a == 0, out))


@given(_fractional_power_bases())
@example(validate_renyi("221221"))  # p = 22, twice the shortest border
@example(validate_renyi("5222252221"))  # a span over the text cap
@settings(max_examples=200, deadline=None)
def test_witness_decomposition_holds_as_proved(d):
    b = construct_witness(d)
    w, j = d.digits[:-1], len(b.p_prime)
    assert b.q and b.q[0] < b.p[j]
    assert w == b.p * b.r + b.p_prime + b.q + b.p
    hc = (b.h,) + b.c
    pad = (0,) * b.a_pad
    assert b.x1 == _right_aligned_sub(w[:len(w) - len(b.p)], hc) + pad
    assert b.x2 == _right_aligned_sub(w, hc) + pad
    # a span over the text cap is verified all the same, and w0 is not spelt
    v = verify_witness(d, b)
    assert v.span == radix_rank(d, b.z)
    assert (v.w0 is None) == (v.span >= TEXT_CAP)


def test_witness_2121_verification():
    b = construct_witness(D2121)
    v = verify_witness(D2121, b)
    assert v.span == 15
    assert v.pred_letters == (3, 2)
    assert v.succ_letter_z == 2
    assert v.w0 == coding_of_segment(D2121, "", 15) + (0,) == W0_2121


def test_witness_word_is_left_special_but_not_a_prefix():
    b = construct_witness(D2121)
    v = verify_witness(D2121, b)
    n = len(v.w0)
    assert len(_left_letters(factor_library(D2121, n + 1), bytes(v.w0))) >= 2
    assert v.w0 != fixed_point_prefix(D2121, n)


def test_witness_second_base():
    d = validate_renyi("212121")
    b = construct_witness(d)
    assert b.p == word("2") and b.q == word("121") and b.z == word("121")
    assert b.x1 == word("212000") and b.x2 == word("2121100")
    v = verify_witness(d, b)
    assert v.pred_letters == (3, 2)
    assert v.w0 == coding_of_segment(d, "", v.span) + (0,)


# 11011 drops a leading zero of z; 221221 needs the border 22, not 2
@pytest.mark.parametrize("base", ["2121", "3231", "22121", "33231", "212121", "11011", "221221"])
def test_witness_walks_match_reference_successor(base):
    # condition (i) against the candidate-retry successor and the walk rank
    d = validate_renyi(base)
    b = construct_witness(d)
    v = verify_witness(d, b)
    assert v.span == radix_oracle.radix_rank(d, b.z)
    for x, end in ((b.x1, v.x1_end), (b.x2, v.x2_end)):
        y, letters = x, []
        for _ in range(v.span):
            letters.append(radix_oracle.succ_match_length(d, y) % d.m)
            y = radix_oracle.next_admissible(d, y)
        assert tuple(letters) + (0,) == v.w0 and y == end
    assert v.succ_letter_z == radix_oracle.succ_match_length(d, b.z)


# each replaced field breaks one condition; a point that is not admissible
# (22 for 2121) is refused by verify_witness itself, with the same exit code
@pytest.mark.parametrize("base, field, value, condition", [
    *(pytest.param(base, field, value, condition, id=f"{base}-{condition}")
      for base in ("2121", "221221", "3231")
      for field, value, condition in (
          ("x1", lambda b, d: b.z, "i"),
          ("x2", lambda b, d: b.x1, "ii"),
          ("x1", lambda b, d: (), "iii"),
          ("a_pad", lambda b, d: b.a_pad + d.m, "iv"),
      )),
    pytest.param("2121", "z", lambda b, d: (2, 2), "admissible", id="2121-z-admissible"),
    pytest.param("2121", "x1", lambda b, d: (2, 2), "admissible", id="2121-x1-admissible"),
])
def test_tampered_witness_fails_its_condition(base, field, value, condition):
    d = validate_renyi(base)
    b = construct_witness(d)
    with pytest.raises(VerificationFailed) as err:
        verify_witness(d, WitnessBundle(**{**vars(b), field: value(b, d)}))
    assert (err.value.condition, err.value.exit_code) == (condition, 4)


# (iv) reads the match length k of z against the bundle's own a_pad and c:
# 0 < a_pad <= k <= a_pad + len(c) < m.  On these bases k = a_pad and c is
# empty, so a_pad one short, or c padded to reach m, breaks only the upper
# bounds; verify_witness reads the bundle from its caller and must refuse both
@pytest.mark.parametrize("base", ["2121", "221221", "3231"])
@pytest.mark.parametrize("field, value", [
    pytest.param("a_pad", lambda b, d: b.a_pad - 1, id="a_pad-below-k"),
    pytest.param("c", lambda b, d: b.c + (0,) * (d.m - b.a_pad - len(b.c)), id="c-reaching-m"),
])
def test_a_bundle_past_the_upper_index_bounds_fails_condition_iv(base, field, value):
    d = validate_renyi(base)
    b = construct_witness(d)
    k = verify_witness(d, b).succ_letter_z
    tampered = WitnessBundle(**{**vars(b), field: value(b, d)})
    assert 0 < tampered.a_pad <= k
    with pytest.raises(VerificationFailed) as err:
        verify_witness(d, tampered)
    assert (err.value.condition, err.value.exit_code) == ("iv", 4)


def test_a_walk_ending_off_x_plus_z_fails_condition_i(monkeypatch):
    # a walk that reads the coding from 0 ends at x + z, so only a broken
    # walk reaches this check
    segment = analysis._segment

    def shifted(d, x, count):
        letters, end, state = segment(d, x, count)
        return letters, end + (0,), state

    monkeypatch.setattr(analysis, "_segment", shifted)
    with pytest.raises(VerificationFailed, match="does not end at x1") as err:
        verify_witness(D2121, construct_witness(D2121))
    assert err.value.condition == "i"


_DIGIT_WORDS = st.lists(st.integers(0, 4), max_size=12).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["11", "21", "2121", "3231", "221221", "301002"]),
       _DIGIT_WORDS, _DIGIT_WORDS, _DIGIT_WORDS)
def test_the_right_aligned_difference_is_the_difference_of_values(base, a, b, c):
    # condition (i) reads end - x - z in one Horner pass; the value map is
    # linear in the digits, so it must give the same coordinates
    d = validate_renyi(base)
    want = value_of(d, a) - value_of(d, b) - value_of(d, c)
    assert tuple(analysis._excess(d, a, b, c)) == want.coords


def test_a_gap_of_length_one_after_z_fails_condition_iv(monkeypatch):
    # u[span] is the final automaton state of z; a z ending in state 0 fails
    rank_state = analysis._rank_state
    monkeypatch.setattr(analysis, "_rank_state", lambda d, z: (rank_state(d, z)[0], 0))
    with pytest.raises(VerificationFailed, match="match length 0 violates") as err:
        verify_witness(D2121, construct_witness(D2121))
    assert err.value.condition == "iv"


def test_a_bundle_with_no_padding_cannot_pass_a_gap_of_length_one(monkeypatch):
    # a_pad = 0 would admit the match length 0, which makes w0 a prefix
    rank_state = analysis._rank_state
    monkeypatch.setattr(analysis, "_rank_state", lambda d, z: (rank_state(d, z)[0], 0))
    b = construct_witness(D2121)
    with pytest.raises(VerificationFailed, match="match length 0 violates") as err:
        verify_witness(D2121, WitnessBundle(**{**vars(b), "a_pad": 0}))
    assert err.value.condition == "iv"


@pytest.mark.parametrize("command", ["witness", "classify"])
def test_a_witness_over_wide_digits_takes_few_steps(monkeypatch, capsys, command):
    # z = 1,N,1 asks for N blocks phi^1(0) in a row: the walks take them in
    # one step, so the work does not grow with the digits
    n = 10**9
    calls = []
    advance = numeration._advance
    monkeypatch.setattr(numeration, "_advance", lambda *a: calls.append(1) or advance(*a))
    assert main([command, f"{n},1,{n},1"]) == 0
    assert len(calls) < 50
    assert f'"span": {2 * n * n + 2 * n + 3}' in capsys.readouterr().out


def test_a_base_wider_than_a_byte_is_refused_by_the_check():
    # its walks read blocks at most 255 zeros deep, so their steps would
    # not be bounded by the length of z
    d = validate_renyi("2" + "1" * 298 + "21")
    with pytest.raises(LetterRangeError):
        verify_witness(d, construct_witness(d))


def test_witness_reads_each_point_once(monkeypatch):
    # z by its rank, x1 and x2 by their walks: one automaton pass per point
    d = validate_renyi("221221")
    b = construct_witness(d)
    states, read = numeration._states, []
    monkeypatch.setattr(numeration, "_states", lambda d, s: read.append(s) or states(d, s))
    assert main(["witness", "221221"]) == 0
    assert read == [b.z, b.x1, b.x2]


def _count_text(mp):
    """Record, by name, every call through which verify_witness could build
    letters: the prefix u[:span] and the joiner of a walk's runs."""
    calls = []
    for name in ("fixed_point_prefix_bytes", "_spell"):
        real = getattr(analysis, name)
        mp.setattr(analysis, name,
                   lambda *a, name=name, real=real: calls.append(name) or real(*a))
    return calls


def test_runs_agree_with_the_letter_oracle_on_the_witness_corpus(monkeypatch):
    # every walk takes the runs of z, so no letter is built to verify
    bases = CorpusSpec.parse("m=2..7,digit<=3,tm=1,nonpower").members()[0]
    assert len(bases) == 279
    built = _count_text(monkeypatch)
    for d in bases:
        b = construct_witness(d)
        v = verify_witness(d, b)
        assert built == [], fmt(d.digits)
        got = (v.span, v.w0, v.x1_end, v.x2_end, v.pred_letters, v.succ_letter_z)
        assert got == radix_oracle.witness_by_letters(d, b), fmt(d.digits)
        built.clear()  # reading w0 spells the prefix


def _unrolled(d, runs):
    """The runs with each block phi^k(0), k >= 1, written as its factors
    phi^(k-i)(0)^(t_i) for i <= min(k, m), then the letter k if k < m: other
    runs that spell the same letters."""
    out = []
    for k, c in runs:
        if k < 1:
            out.append((k, c))
        else:
            out += ([(k - i, t) for i, t in enumerate(d.digits[:k], 1) if t]
                    + [(-k, 1)] * (k < d.m)) * c
    return out


@pytest.mark.parametrize("base", ["2121", "221221", "3231", "11011"])
def test_a_walk_whose_runs_differ_is_compared_by_letters(monkeypatch, base):
    d = validate_renyi(base)
    b = construct_witness(d)
    segment = analysis._segment

    def split(d, x, count):
        runs, end, state = segment(d, x, count)
        return (_unrolled(d, runs) if x == b.x1 else runs), end, state

    monkeypatch.setattr(analysis, "_segment", split)
    built = _count_text(monkeypatch)
    v = verify_witness(d, b)
    # the prefix and the letters of the split walk, once each
    assert built == ["fixed_point_prefix_bytes", "_spell"]
    assert v.w0 == radix_oracle.witness_by_letters(d, b)[1]


@pytest.mark.parametrize("base", ["2121", "221221", "3231", "212121"])
def test_an_x1_with_one_digit_changed_is_refused(base):
    # most changes leave the runs of z, and the letters then differ (i) or
    # the string is not admissible; a change whose walk still spells
    # u[:span] ends in a state other than 0 (iii)
    d = validate_renyi(base)
    b = construct_witness(d)
    seen = set()
    for i, a in enumerate(b.x1):
        for other in range(d.max_digit + 1):
            if other != a:
                x1 = b.x1[:i] + (other,) + b.x1[i + 1:]
                with pytest.raises(VerificationFailed) as err:
                    verify_witness(d, WitnessBundle(**{**vars(b), "x1": x1}))
                seen.add(err.value.condition)
    assert {"i", "admissible"} <= seen <= {"i", "iii", "admissible"}


# structured words whose witness spans pass 10^20: 2.2e31 and 4.6e28
LONG_SPAN_WORDS = ("551323405513234055132340551323405513230551323401",
                   "5535123155351231553512315535123155350553512311")


@st.composite
def _structured_words(draw):
    """p^r p' q p 1 with |p| <= 8, r <= 4, p' = p[:j] for a j < |p| with
    p_(j+1) > 0, and |q| <= 7 with q_1 < p_(j+1).  No digit exceeds p_1,
    which the Parry condition asks of t_1; a word that it still refuses, or
    that the classifier does not call a fractional power, is rejected."""
    top = draw(st.integers(1, 5))
    p = [top] + draw(st.lists(st.integers(0, top), max_size=7))
    r = draw(st.integers(1, 4))
    j = draw(st.sampled_from([i for i, a in enumerate(p) if a]))
    q = [draw(st.integers(0, p[j] - 1))] + draw(st.lists(st.integers(0, top), max_size=6))
    w = p * r + p[:j] + q + p + [1]
    try:
        d = validate_renyi(w)
    except ParryViolation:
        assume(False)
    assume(classify_affine(d).reason == "fractional_power")
    return fmt(w)


@given(_structured_words())
@example(LONG_SPAN_WORDS[0])
@example(LONG_SPAN_WORDS[1])
@example("5222252221")  # a span of 2,122,757, over the text cap
@settings(max_examples=150, deadline=None)
def test_witness_of_a_structured_word_verifies_without_text(w):
    d = validate_renyi(w)
    b = construct_witness(d)
    with pytest.MonkeyPatch.context() as mp:
        built = _count_text(mp)
        v = verify_witness(d, b)
    assert built == []
    assert v.span == radix_rank(d, b.z)
    assert v.span > 10**20 or w not in LONG_SPAN_WORDS
    assert v.to_json()["w0_length"] == v.span + 1


def test_witness_is_the_shortest_non_prefix_left_special_factor():
    # on every base of the witness corpus, w0 branches left in the certified
    # factor set, is not a prefix, and is as long as the first excess of C
    bases = CorpusSpec.parse("m=2..7,digit<=3,tm=1,nonpower").members()[0]
    assert len(bases) == 279
    for d in bases:
        w0 = verify_witness(d, construct_witness(d)).w0
        n = len(w0)
        lib = factor_library(d, n + 1)
        assert len(_left_letters(lib, bytes(w0))) >= 2, fmt(d.digits)
        assert w0 != fixed_point_prefix(d, n), fmt(d.digits)
        c = lib.sorted_view.complexity
        excess = [k for k in range(1, n + 1) if c[k + 1] - c[k] > d.m - 1]
        assert excess[:1] == [n], fmt(d.digits)


@st.composite
def _table_calls(draw):
    """A base, a witness base half the time, and a sequence of calls that
    read its block table: (kind, a, b)."""
    base = draw(st.one_of(st.sampled_from(["2121", "3231", "221221", "3312331", "12,3,12,1"]),
                          st.lists(st.integers(0, 3), min_size=2, max_size=6)))
    try:
        d = validate_renyi(base)
    except (ParryViolation, TrailingZeroError):
        assume(False)
    calls = st.tuples(st.sampled_from(["rank", "coding", "prefix", "witness"]),
                      st.integers(0, 3000), st.integers(0, 300))
    return d.digits, draw(st.lists(calls, min_size=1, max_size=8))


def _table_call(d, kind, a, b):
    """One reader of the block table of d, on the a-th and b-th beta-integers."""
    point = numeration._segment(validate_renyi(d.digits), (), b)[1]
    if kind == "rank":
        return radix_rank(d, numeration._segment(validate_renyi(d.digits), (), a)[1])
    if kind == "coding":
        return coding_of_segment(d, point, a)
    if kind == "prefix":
        return numeration.fixed_point_prefix_bytes(d, a)
    if classify_affine(d).reason != "fractional_power":
        return None
    v = verify_witness(d, construct_witness(d))
    return v.span, v.w0, v.x1_end, v.x2_end, v.pred_letters, v.succ_letter_z


@given(_table_calls())
@settings(max_examples=60, deadline=None)
def test_one_block_table_per_base_does_not_depend_on_call_order(case):
    # the rank, a walk, a prefix and the witness share the table of d in any
    # order; each reads what it would read on a fresh base, the rank of the
    # a-th beta-integer is a, and the table is the recurrence of U
    digits, calls = case
    d = validate_renyi(digits)
    for kind, a, b in calls:
        got = _table_call(d, kind, a, b)
        assert got == _table_call(validate_renyi(digits), kind, a, b)
        assert kind != "rank" or got == a
    table = numeration._block_lengths(d, 0)
    assert table == radix_oracle.block_lengths(d, len(table))


@pytest.mark.parametrize("base", ["11", "21", "201", "2121", "3231"])
def test_the_recurrence_of_u_counts_the_admissible_strings(base):
    # U_k is the rank of 1 0^k: the admissible strings of length at most k
    d = validate_renyi(base)
    assert radix_oracle.block_lengths(d, 6) == [
        radix_oracle.radix_rank(d, (1,) + (0,) * k) for k in range(6)]


def test_value_records_are_immutable_and_compare_by_value():
    # the six immutable records refuse assignment and deletion; the four
    # value types among them compare and hash by their fields
    def build():
        d = validate_renyi("2121")
        return (d, numeration.one(d), numeration.greedy_expand_integer(d, 2),
                find_tridents(d, 40)[0], build_substitution(d), construct_witness(d))

    first, again = build(), build()
    for record in first:
        name = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is not None
    for record, twin in zip(first[:4], again[:4]):
        assert record == twin and hash(record) == hash(twin) and record is not twin
    assert first[0] != validate_renyi("211") and first[1] != numeration.zero(first[0])
