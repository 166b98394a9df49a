"""Complexity profiles, special factors, tridents, affineness, witnesses."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import radix_oracle
from parryscope import analysis
from parryscope.analysis import (
    TEXT_CAP,
    FactorLibrary,
    Trident,
    _prefix_counts,
    classify_affine,
    clear_factor_cache,
    complexity_profile,
    construct_witness,
    expected_gap_inventory,
    factor_library,
    find_tridents,
    full_report,
    maximal_left_special,
    special_factors,
    verify_gap_inventory,
    verify_witness,
)
from parryscope.cli import CorpusSpec
from parryscope.errors import BudgetExceeded, NotApplicable, VerificationFailed
from parryscope.numeration import coding_of_segment, validate_renyi
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
    """The factor sets of lengths 0..max_len held by a library: the keys of
    its right extension maps, then ``longest``."""
    return [set(lib.extensions(n)[1]) for n in range(lib.max_len)] + [lib.longest]


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


def _extension_maps(sets, n, m):
    """Left and right extension letters of every n-factor, by testing each
    one-letter extension for membership among the (n+1)-factors."""
    letters = [bytes([a]) for a in range(m)]
    lext = {w: {a for a in range(m) if letters[a] + w in sets[n + 1]} for w in sets[n]}
    rext = {w: {a for a in range(m) if w + letters[a] in sets[n + 1]} for w in sets[n]}
    return lext, rext


def test_extensions_match_prefix_scan():
    # on prefixes of 2^16 letters, every factor of length 30 occurs before
    # letter 1,500 on m=2..4,digit<=3, before 6,600 on m=5..6,digit<=2 and
    # before 12,000 on 301002
    cases = [(d, 1 << 11) for d in CorpusSpec.parse("m=2..4,digit<=3").members()[0]]
    cases += [(d, 1 << 13) for d in CorpusSpec.parse("m=5..6,digit<=2").members()[0]]
    cases.append((validate_renyi("301002"), 1 << 14))
    for d, length in cases:
        sets = _prefix_scan(d.digits, length, 30)
        expected = [_extension_maps(sets, n, d.m) for n in range(30)]
        # ascending calls read each map off longest, descending ones chain
        for order in (range(30), range(29, -1, -1)):
            clear_factor_cache()
            lib = factor_library(d, 30)
            got = {n: lib.extensions(n) for n in order}
            assert [got[n] for n in range(30)] == expected, (fmt(d.digits), order)


SPECIALS_SESSION_BASES = ("11", "22", "111", "211", "201", "2112", "321", "2121", "21211")


def test_growing_sweep_rebuilds_once_per_text(monkeypatch):
    # a rebuild for a cached base reads its texts at the longest length they
    # certify, so a growing sweep builds one library per text length, and
    # every report equals the one from a cold cache
    builds = []
    image_bytes = analysis._image_bytes

    def counting(d):
        builds.append(d)
        return image_bytes(d)

    monkeypatch.setattr(analysis, "_image_bytes", counting)
    for base in SPECIALS_SESSION_BASES:
        d = validate_renyi(base)
        clear_factor_cache()
        builds.clear()
        sweep = [special_factors(d, n) for n in range(1, 26)]
        assert len(builds) == len({r.prefix_length_used for r in sweep}), base
        for n, report in enumerate(sweep, 1):
            clear_factor_cache()
            assert report == special_factors(d, n), (base, n)


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
    """Distinct n-prefixes, and n-prefixes followed by two or more letters."""
    complexity = [len({w[:n] for w in words}) for n in range(length + 1)]
    special = []
    for n in range(length):
        following = {}
        for w in words:
            following.setdefault(w[:n], set()).add(w[n])
        special.append(sum(len(e) >= 2 for e in following.values()))
    return complexity, special


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
    assert tuple(_prefix_counts(words, length)) == _naive_prefix_counts(words, length)
    reversed_words = {w[::-1] for w in words}
    assert tuple(_prefix_counts(words, length, "little")) == _naive_prefix_counts(
        reversed_words, length)


def test_sorted_views_match_factor_sets_and_extension_maps():
    # factors with three or more extensions occur on these bases
    bases = CorpusSpec.parse("m=5..6,digit<=2").members()[0] + [validate_renyi("301002")]
    widest = 0
    for d in bases:
        clear_factor_cache()
        values = complexity_profile(d, 30).values
        lib = factor_library(d, 30)
        assert values == [len(f) for f in _factor_sets(lib)[1:31]], fmt(d.digits)
        left = lib.reversed_view.special
        right = lib.sorted_view.special
        for n in range(1, 30):
            lext, rext = lib.extensions(n)
            assert left[n] == sum(len(e) >= 2 for e in lext.values()), (fmt(d.digits), n)
            assert right[n] == sum(len(e) >= 2 for e in rext.values()), (fmt(d.digits), n)
            widest = max(widest, *map(len, lext.values()), *map(len, rext.values()))
        specials = full_report(d, oracle_n=30)["specials"]
        assert specials["left_special_counts"] == left[1:30], fmt(d.digits)
        assert specials["right_special_counts"] == right[1:30], fmt(d.digits)
    assert widest >= 3


def test_reversed_view_certifies_suffix_closure():
    clear_factor_cache()
    lib = factor_library(D2121, 12)
    lext, rext = lib.extensions(11)
    # without w, its 11-prefix is no longer a factor but its 11-suffix still is
    w = min(f for f in lib.longest if len(rext[f[:-1]]) == 1 and len(lext[f[1:]]) >= 2)
    tampered = FactorLibrary(D2121, 12, lib.prefix_length, lib.longest - {w})
    assert tampered.sorted_view.complexity[11] == lib.sorted_view.complexity[11] - 1
    with pytest.raises(VerificationFailed) as err:
        tampered.reversed_view
    assert err.value.condition == "balance"
    assert lib.reversed_view.complexity == lib.sorted_view.complexity


def test_every_consumer_refuses_a_library_not_closed_under_suffixes(monkeypatch):
    # the tampered library of test_reversed_view_certifies_suffix_closure
    clear_factor_cache()
    lib = factor_library(D2121, 12)
    lext, rext = lib.extensions(11)
    w = min(f for f in lib.longest if len(rext[f[:-1]]) == 1 and len(lext[f[1:]]) >= 2)
    tampered = FactorLibrary(D2121, 12, lib.prefix_length, lib.longest - {w})
    consumers = [lambda n=n: tampered.extensions(n) for n in (5, 10, 11)]
    consumers += [lambda: special_factors(D2121, 11),
                  lambda: maximal_left_special(D2121, 10),
                  lambda: find_tridents(D2121, 9)]
    monkeypatch.setitem(analysis._LIB_CACHE, D2121.digits, tampered)
    for consume in consumers:
        with pytest.raises(VerificationFailed) as err:
            consume()
        assert err.value.condition == "balance"
    assert analysis._LIB_CACHE == {D2121.digits: tampered}
    assert tampered._extensions == {}  # a map is cached only once it passes


def test_extensions_reject_lengths_outside_the_library():
    clear_factor_cache()
    lib = factor_library(D2121, 5)
    for n in (-1, 5, 6):
        with pytest.raises(ValueError):
            lib.extensions(n)
    assert lib._extensions == {}
    assert set(lib.extensions(4)[1]) == {f[:4] for f in lib.longest}
    assert set(lib.extensions(0)[1]) == {b""}


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
                im = s.apply(w)
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
        lib = factor_library(d, 30)
        assert specials["lengths"] == list(range(1, 30))
        for n, left, right in zip(range(1, 30), specials["left_special_counts"],
                                  specials["right_special_counts"]):
            lext, rext = lib.extensions(n)
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


def test_classifier_oracle_agreement():
    for base, n in (("11", 30), ("2121", 20), ("21211", 40), ("111", 30), ("22", 20)):
        cls = classify_affine(validate_renyi(base), oracle_n=n)
        assert cls.oracle.agrees, base
        if not cls.affine:
            assert cls.oracle.first_excess_n is not None


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


def test_witness_2121_verification():
    b = construct_witness(D2121)
    v = verify_witness(D2121, b)
    assert v.span == 15
    assert v.pred_letters == (3, 2)
    assert v.succ_letter_z == 2
    assert v.coding == coding_of_segment(D2121, "", 15)
    assert v.w0 == W0_2121


def test_witness_word_is_left_special_but_not_a_prefix():
    b = construct_witness(D2121)
    v = verify_witness(D2121, b)
    n = len(v.w0)
    lib = factor_library(D2121, n + 1)
    exts = lib.extensions(n)[0].get(bytes(v.w0))
    assert exts is not None and len(exts) >= 2
    assert v.w0 != fixed_point_prefix(D2121, n)


def test_witness_second_base():
    d = validate_renyi("212121")
    b = construct_witness(d)
    assert b.p == word("2") and b.q == word("121") and b.z == word("121")
    assert b.x1 == word("212000") and b.x2 == word("2121100")
    v = verify_witness(d, b)
    assert v.pred_letters == (3, 2)
    assert v.w0 == v.coding + (0,)


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
        assert tuple(letters) == v.coding and y == end
    assert v.succ_letter_z == radix_oracle.succ_match_length(d, b.z)


def test_witness_is_the_shortest_non_prefix_left_special_factor():
    # on every base of the witness corpus, w0 branches left in the certified
    # factor set, is not a prefix, and is as long as the first excess of C
    bases = CorpusSpec.parse("m=2..7,digit<=3,tm=1,nonpower").members()[0]
    assert len(bases) == 279
    for d in bases:
        w0 = verify_witness(d, construct_witness(d)).w0
        n = len(w0)
        lib = factor_library(d, n + 1)
        assert len(lib.extensions(n)[0].get(bytes(w0), ())) >= 2, fmt(d.digits)
        assert w0 != fixed_point_prefix(d, n), fmt(d.digits)
        c = lib.sorted_view.complexity
        excess = [k for k in range(1, n + 1) if c[k + 1] - c[k] > d.m - 1]
        assert excess[:1] == [n], fmt(d.digits)
