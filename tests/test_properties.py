"""Property-based tests of the algebraic invariants.

The separate acceptance module runs a seeded bulk fuzz; here hypothesis
searches adversarially over random words, maps, and small groups.
"""

import contextlib
import dataclasses
import functools
import importlib
import io
import json
from itertools import compress
from operator import eq

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from groups import cyclic4_antimorphism_group, cyclic4_reversal_group, two_swaps_reversal_group
from oracles import (
    brute_lps,
    classical_palindromes,
    closure_additions,
    closure_involutively_generated,
    closure_subgroups,
    complete_g_return_words,
    distinguishing,
    every_fixed_suffix,
    graph_tls_verdict,
    non_g_palindromes,
    per_factor_orbit_data,
    per_group_dual_defect,
    position_walk_edges,
    subgroup_scan_reference,
    theta_palindromic_factors,
    theta_richness,
    violating_crw_records,
    window_runs,
    windows,
)
from symrich import (
    Alphabet,
    ConsistencyError,
    DefectProfile,
    IndexRangeError,
    InsufficientPrefixError,
    LanguageIndex,
    LiteralSource,
    PeriodicSource,
    SymmetryGroup,
    SymmetryMap,
    SymrichError,
    defect_profile,
    directed_symmetry_graph,
    g_defect,
    g_lps,
    prefix_palindrome_table,
    stability_check,
    subgroup_scan,
    tls_verdict,
    verify_text,
)
from symrich.cli import EXIT_CONFIG, main
from symrich.palindromes import (
    DEFECT_CROSSCHECK_HEAD,
    TextPalindromes,
    _check_dual,
    _fixed_suffixes,
    _palindrome_scan,
)
from symrich.presets import (
    BINARY,
    binary_full_group,
    fibonacci_source,
    generalized_thue_morse,
    hexa_group,
    hexa_text,
    octa_group,
    octa_source,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import dihedral_group
from symrich.verify import (
    ALMOST,
    INCONSISTENT,
    RICH,
    _decide,
    _highest_failures,
    complete_return_words,
    crw_records,
)
from symrich.words import DigitSumSource


@st.composite
def alphabet_st(draw):
    return Alphabet.from_size(draw(st.integers(1, 5)))


def word_st(alphabet, max_size=40, min_size=0):
    return st.text(alphabet=list(alphabet.glyphs), min_size=min_size, max_size=max_size)


@st.composite
def involution_st(draw, alphabet):
    glyphs = list(alphabet.glyphs)
    shuffled = draw(st.permutations(glyphs))
    pairs = draw(st.integers(0, len(glyphs) // 2))
    images = {g: g for g in glyphs}
    for i in range(pairs):
        a, b = shuffled[2 * i], shuffled[2 * i + 1]
        images[a], images[b] = b, a
    return SymmetryMap.from_mapping(alphabet, images, antimorphic=True)


@st.composite
def antimorphism_st(draw, alphabet):
    perm = draw(st.permutations(list(alphabet.glyphs)))
    return SymmetryMap(alphabet, tuple(perm), antimorphic=True)


@st.composite
def group_st(draw):
    """A random group of order <= 8 containing at least one antimorphism."""
    alphabet = draw(alphabet_st())
    generators = [draw(involution_st(alphabet))]
    extra = draw(st.integers(0, 2))
    if extra == 1:
        generators.append(draw(involution_st(alphabet)))
    elif extra == 2:
        generators.append(draw(antimorphism_st(alphabet)))
    group = SymmetryGroup.close(generators)
    assume(group.order <= 8)
    return group


@st.composite
def group_and_word_st(draw, max_size=40):
    group = draw(group_st())
    word = draw(word_st(group.alphabet, max_size=max_size))
    return group, word


class TestMapAlgebra:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_apply_respects_composition(self, data):
        alphabet = data.draw(alphabet_st())
        f = data.draw(antimorphism_st(alphabet))
        g = data.draw(involution_st(alphabet))
        w = data.draw(word_st(alphabet, max_size=20))
        assert f.compose(g).apply(w) == f.apply(g.apply(w))
        assert g.compose(f).apply(w) == g.apply(f.apply(w))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_roundtrip(self, data):
        alphabet = data.draw(alphabet_st())
        f = data.draw(antimorphism_st(alphabet))
        w = data.draw(word_st(alphabet, max_size=20))
        assert f.inverse().apply(f.apply(w)) == w

    @given(group=group_st())
    @settings(max_examples=60, deadline=None)
    def test_group_structure(self, group):
        assert len(group.morphisms) == len(group.antimorphisms)
        again = SymmetryGroup.close(group.elements)
        assert again.elements == group.elements

    @given(group=group_st())
    @settings(max_examples=60, deadline=None)
    def test_subgroups_match_closure_oracle(self, group):
        subs = group.subgroups()
        assert subs == closure_subgroups(group)
        for g in [group, *subs]:
            assert g.is_involutively_generated() is closure_involutively_generated(g)

    @given(gw=group_and_word_st(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_orbits_partition(self, gw):
        group, word = gw
        orbit = group.equivalence_class(word)
        assert word in orbit
        assert all(len(v) == len(word) for v in orbit)
        for v in orbit:
            assert group.equivalence_class(v) == orbit

    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=60, deadline=None)
    def test_batched_filter_matches_per_word_test(self, data):
        # the groups include those generated by one antimorphism that need not
        # be an involution; the words include the empty one
        if data is None:
            group, words = reversal_group(BINARY), ["", "0", "01", "010", "0110", "011"]
        else:
            group = data.draw(group_st() | alphabet_st().flatmap(antimorphism_st).map(
                lambda t: SymmetryGroup.close([t])))
            words = data.draw(st.lists(word_st(group.alphabet, max_size=8), max_size=12))
        assert group.non_g_palindromes(iter(words)) == non_g_palindromes(group, words)


class TestDefectProperties:
    @given(gw=group_and_word_st())
    @settings(max_examples=200, deadline=None)
    def test_formula_equals_lacuna_count(self, gw):
        group, word = gw
        profile = g_defect(group, word)  # raises internally on any disagreement
        assert profile.final == len(profile.lacunas)
        assert profile.final == len(word) + 1 - profile.pal_classes[-1] - profile.gamma[-1]

    @given(gw=group_and_word_st(max_size=30), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_extension_monotonicity(self, gw, data):
        group, word = gw
        letter = data.draw(st.sampled_from(list(group.alphabet.glyphs)))
        d = defect_profile(group, word).final
        assert d <= defect_profile(group, word + letter).final <= d + 1
        assert d <= defect_profile(group, letter + word).final <= d + 1

    @given(gw=group_and_word_st(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_invariance_under_group(self, gw):
        group, word = gw
        base = defect_profile(group, word).final
        for mu in group.elements:
            assert defect_profile(group, mu.apply(word)).final == base

    @given(gw=group_and_word_st())
    @settings(max_examples=100, deadline=None)
    def test_prefix_values_nondecreasing(self, gw):
        group, word = gw
        profile = defect_profile(group, word)
        for a, b in zip(profile.defect, profile.defect[1:]):
            assert a <= b <= a + 1


@st.composite
def closure_word_st(draw, group, max_size=40):
    """A word grown by appending a letter and closing under a random
    antimorphism of the group, repeatedly, then cut to ``max_size``.

    Each closure is the shortest theta-palindrome with the word as a prefix;
    when none exists (a letter not fixed by theta squared) the word is kept.
    Such words hold long palindromes of several antimorphisms, so their
    eertrees are deep and their orbit-image links span trees.
    """
    word = ""
    for _ in range(draw(st.integers(1, 12))):
        word += draw(st.sampled_from(list(group.alphabet.glyphs)))
        theta = draw(st.sampled_from(group.antimorphisms))
        word = next(
            (w for i in range(len(word) + 1) if theta.apply(w := word + theta.apply(word[:i])) == w),
            word,
        )
        if len(word) >= max_size:
            break
    return word[:max_size]


class TestLpsDifferential:
    """The eertree engine against brute-force oracles, on groups whose
    antimorphisms need not be involutions."""

    @given(gw=group_and_word_st())
    @settings(max_examples=150, deadline=None)
    def test_g_lps_and_theta_lps(self, gw):
        # the group of an involution theta is {id, theta}, whose lps is the theta-lps
        group, word = gw
        assert g_lps(group, word) == brute_lps(group.antimorphisms, word)
        for theta in group.antimorphisms:
            cyclic = SymmetryGroup.close([theta])
            assert g_lps(cyclic, word) == brute_lps(cyclic.antimorphisms, word)

    @given(gw=group_and_word_st(max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_prefix_table_columns(self, gw):
        group, word = gw
        thetas = group.involutive_antimorphisms
        rows = prefix_palindrome_table(group, word)
        assert [row.n for row in rows] == list(range(len(word) + 1))
        for row in rows:
            prefix = word[:row.n]
            assert row.theta_counts == tuple(len(theta_palindromic_factors(t, prefix)) for t in thetas)
            assert row.g_lps == brute_lps(group.antimorphisms, prefix)

    @given(gw=group_and_word_st())
    @settings(max_examples=150, deadline=None)
    def test_profile_lps_column(self, gw):
        group, word = gw
        profile = defect_profile(group, word)
        assert profile.lps == tuple(
            len(brute_lps(group.antimorphisms, word[:i])) for i in range(len(word) + 1)
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_closure_words(self, data):
        group = data.draw(group_st())
        word = data.draw(closure_word_st(group))
        profile = g_defect(group, word)  # raises on any disagreement with the formula
        assert profile.lps == tuple(
            len(brute_lps(group.antimorphisms, word[:i])) for i in range(len(word) + 1)
        )
        for theta in group.antimorphisms:
            cyclic = SymmetryGroup.close([theta])
            assert g_lps(cyclic, word) == brute_lps(cyclic.antimorphisms, word)


class TestGroupTables:
    """The per-group tables behind the scan are built once per group object
    and reused; equal but distinct group objects build equal tables."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_group_object_across_words(self, data):
        group = data.draw(group_st())
        twin = SymmetryGroup(group.elements)
        other = data.draw(group_st())
        tables = group.palindrome_tables
        for _ in range(data.draw(st.integers(3, 10))):
            g = data.draw(st.sampled_from([group, group, twin, other]))
            word = data.draw(word_st(g.alphabet, max_size=30) | closure_word_st(g, max_size=30))
            assert defect_profile(g, word) == g_defect(g, word)
            assert g_lps(g, word) == brute_lps(g.antimorphisms, word)
        assert group.palindrome_tables is tables
        assert twin == group and twin.palindrome_tables == tables


def rotation_group():
    """The group of order 6 generated by the ternary antimorphism of the letter
    3-cycle, whose powers include two non-involutive antimorphisms."""
    ternary = Alphabet.from_size(3)
    theta = SymmetryMap.from_mapping(ternary, {"0": "1", "1": "2", "2": "0"}, antimorphic=True)
    return SymmetryGroup.close([theta])


@st.composite
def linked_case_st(draw):
    group = draw(group_st())
    return group, draw(word_st(group.alphabet, max_size=30) | closure_word_st(group, max_size=30))


class TestImageLinks:
    """Every orbit-image link of the scan against the strings its nodes stand for."""

    @given(case=linked_case_st())
    @example(case=(rotation_group(), "1010201"))
    @example(case=(rotation_group(), "0120210221"))
    @settings(max_examples=150, deadline=None)
    def test_row_entries_are_orbit_images(self, case):
        group, word = case
        scan = _palindrome_scan(word, group.palindrome_tables)
        antims = group.antimorphisms
        absent = 2 * len(antims)
        width = len(group.elements)
        assert scan.width == width and len(scan.image) == width * len(scan.length)

        def string(node):
            return word[scan.born[node] - scan.length[node]:scan.born[node]]

        for t, theta in enumerate(antims):
            # the empty word of the tree, then its nonempty palindromes
            for node in (2 * t + 1, *range(scan.first[t], scan.first[t + 1])):
                assert theta.apply(string(node)) == string(node)
                for j, g in enumerate(group.elements):
                    u = antims.index(group.compose(g, group.compose(theta, group.inverse(g))))
                    target = g.apply(string(node))
                    entry = scan.image[width * node + j]
                    if target in word:
                        assert entry == 2 * u + 1 or scan.first[u] <= entry < scan.first[u + 1]
                        assert string(entry) == target
                    else:
                        assert entry == absent


class TestLpsRegressions:
    """Fixed cases that a one-sided extension test or a root without fallback gets wrong."""

    def test_non_involutive_extension_needs_both_tests(self):
        group = rotation_group()
        for word in ("10", "0120", "1010201"):
            assert defect_profile(group, word) == g_defect(group, word)
            assert g_lps(group, word) == brute_lps(group.antimorphisms, word)

    def test_exchange_without_fixed_letters(self):
        group = SymmetryGroup.close(
            [SymmetryMap.from_mapping(Alphabet.from_size(2), {"0": "1", "1": "0"}, antimorphic=True)]
        )
        assert g_lps(group, "0") == ""
        assert defect_profile(group, "0101").lps == (0, 0, 2, 2, 4)
        for word in ("0", "0101", "00110"):
            assert defect_profile(group, word) == g_defect(group, word)


@st.composite
def subgroup_case_st(draw, max_size=30):
    """A group, one of its subgroups with an antimorphism, and a word."""
    group = draw(group_st() | st.sampled_from([rotation_group(), cyclic4_reversal_group()]))
    sub = draw(st.sampled_from([s for s in group.subgroups() if s.has_antimorphism]))
    return group, sub, draw(word_st(group.alphabet, max_size) | closure_word_st(group, max_size))


class TestSharedPalindromes:
    """A subgroup's share of the palindrome work done once under a larger group:
    the dual table of fixed suffixes and the linked scan."""

    @given(case=subgroup_case_st(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_dual_count_matches_per_group_formula(self, case, data):
        group, sub, word = case
        defect, pal, gamma = map(tuple, zip(*per_group_dual_defect(sub, word)))
        profile = DefectProfile(word, defect, pal, gamma, (), ())
        table = _fixed_suffixes(group, word)
        _check_dual(sub, word, table, profile, group)  # raises at the first prefix that disagrees
        if word:
            i = data.draw(st.integers(1, len(word)))
            field = data.draw(st.sampled_from(["defect", "pal_classes", "gamma"]))
            wrong = list(getattr(profile, field))
            wrong[i] += 1
            with pytest.raises(ConsistencyError, match=f"at position {i} of"):
                _check_dual(sub, word, table, dataclasses.replace(profile, **{field: tuple(wrong)}), group)

    @given(case=subgroup_case_st())
    @settings(max_examples=150, deadline=None)
    def test_restricted_profile_matches_own_scan(self, case):
        group, sub, word = case
        shared = TextPalindromes(group, word)
        own = defect_profile(sub, word)
        restricted = shared.profile(sub)
        for field in dataclasses.fields(DefectProfile):
            assert getattr(restricted, field.name) == getattr(own, field.name), field.name
        shared.check_head(sub, restricted)


@st.composite
def fixed_suffix_case_st(draw):
    """A group, non-involutive antimorphisms included, and a word: random,
    grown by closures, of one repeated letter (every factor fixed by the
    antimorphisms that fix the letter) or empty."""
    group = draw(group_st() | st.sampled_from([cyclic4_reversal_group(), cyclic4_antimorphism_group()]))
    glyphs = list(group.alphabet.glyphs)
    repeated = st.builds(lambda a, k: a * k, st.sampled_from(glyphs), st.integers(1, 80))
    word = draw(word_st(group.alphabet) | closure_word_st(group) | repeated | st.just(""))
    return group, word


class TestFixedSuffixes:
    """The dual table by centre expansion against testing every suffix of every prefix."""

    @given(case=fixed_suffix_case_st())
    @example(case=(rotation_group(), "1010201"))
    @example(case=(cyclic4_antimorphism_group(), "0123210"))
    @settings(max_examples=300, deadline=None)
    def test_matches_every_suffix_test(self, case):
        group, word = case
        assert _fixed_suffixes(group, word) == every_fixed_suffix(group, word)

    @pytest.mark.parametrize("group, source", [
        (binary_full_group(), thue_morse_source()),
        (reversal_group(BINARY), thue_morse_source()),
        (reversal_group(BINARY), fibonacci_source()),
        (dihedral_group(3), generalized_thue_morse(3, 3)),
    ], ids=["tm/order-4", "tm/reversal", "fib/reversal", "t33/dihedral-3"])
    def test_verify_heads(self, group, source):
        """The heads that verify checks, and a word of one letter as long, the worst case."""
        for word in (source.prefix(DEFECT_CROSSCHECK_HEAD), "1" * DEFECT_CROSSCHECK_HEAD):
            assert _fixed_suffixes(group, word) == every_fixed_suffix(group, word)


class TestRichnessBounds:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_classical_palindrome_bound(self, data):
        alphabet = data.draw(alphabet_st())
        word = data.draw(word_st(alphabet))
        assert len(classical_palindromes(word)) <= len(word) + 1

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_theta_palindrome_bound(self, data):
        alphabet = data.draw(alphabet_st())
        theta = data.draw(involution_st(alphabet))
        word = data.draw(word_st(alphabet))
        out = theta_richness(theta, word)
        assert out.pal_count <= len(word) + 1 - out.gamma
        assert out.pal_count == len(theta_palindromic_factors(theta, word))

    @given(gw=group_and_word_st())
    @settings(max_examples=100, deadline=None)
    def test_gamma_bounded_by_letter_classes(self, gw):
        group, word = gw
        classes, fixed = group.letter_classes, group.letter_fixed
        gamma = len({classes[a] for a in set(word) if not fixed[a]})
        assert 0 <= gamma <= len(set(word))


class TestIndexedIdentities:
    @given(gw=group_and_word_st(max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_extension_identities_on_closed_sets(self, gw):
        group, word = gw
        assume(len(word) >= 3)
        n_max = min(6, len(word))
        index = LanguageIndex(word, n_max, group)
        c = index.complexities()
        for n in range(n_max - 1):
            lsum = sum(len(index.lext(w)) - 1 for w in index.factors(n))
            assert lsum == c[n + 1] - c[n]
        for n in range(n_max - 2):
            bsum = sum(index.bilateral_order(w) for w in index.factors(n))
            assert bsum == (c[n + 2] - c[n + 1]) - (c[n + 1] - c[n])
            for theta in group.involutive_antimorphisms:
                p = index.palindromic_complexity(theta)
                total = sum(len(index.pext(theta, w))
                            for w in index.theta_palindromes(theta, n))
                assert p[n + 2] == total

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_complexity_bound_on_closed_words(self, data):
        """dC(n) + #G bounds the palindromic complexity sum at distinguishing n."""
        from symrich import complexity_identity

        if data.draw(st.booleans()):
            base = data.draw(st.integers(2, 4))
            modulus = data.draw(st.integers(1, 4))
            full = dihedral_group(modulus)
            candidates = [s for s in full.subgroups() if s.has_antimorphism]
            group = data.draw(st.sampled_from(candidates))
            text = DigitSumSource(base, modulus).prefix(700)
        else:
            alphabet = data.draw(alphabet_st())
            theta = data.draw(involution_st(alphabet))
            q = data.draw(word_st(alphabet, min_size=1, max_size=6))
            period = q + theta.apply(q)
            group = SymmetryGroup.close([theta])
            text = period * (80 // len(period) + 2)
        n_max = 8
        index = LanguageIndex(text, n_max + 1, group)
        assume(not index.closure_added)
        for record in complexity_identity(group, index, range(n_max)):
            if record.distinguishing:
                assert record.holds

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_antimorphisms_swap_speciality(self, data):
        base = data.draw(st.integers(2, 3))
        modulus = data.draw(st.integers(2, 3))
        group = dihedral_group(modulus)
        index = LanguageIndex(DigitSumSource(base, modulus).prefix(700), 8, group)
        for n in range(1, 7):
            for w in index.factors(n):
                for theta in group.antimorphisms:
                    img = theta.apply(w)
                    if index.is_left_special(w):
                        assert index.is_right_special(img)
                    if index.is_right_special(w):
                        assert index.is_left_special(img)


@st.composite
def punctuation_group_st(draw):
    """A group over unsorted glyphs that a separator-joined closure could
    confuse; a newline cannot be one, since glyphs must be printable."""
    alphabet = Alphabet((",", " ", "|", "0"))
    generators = [draw(involution_st(alphabet))]
    if draw(st.booleans()):
        generators.append(draw(antimorphism_st(alphabet)))
    if draw(st.booleans()):
        perm = draw(st.permutations(list(alphabet.glyphs)))
        generators.append(SymmetryMap(alphabet, tuple(perm), antimorphic=False))
    return SymmetryGroup.close(generators)


@st.composite
def indexed_word_st(draw, max_size=60):
    """A word, an order n_max <= |word|, and a group over its alphabet or None."""
    group = draw(st.none() | group_st() | punctuation_group_st())
    alphabet = group.alphabet if group is not None else draw(alphabet_st())
    if draw(st.booleans()):
        word = draw(word_st(alphabet, max_size=max_size))
    else:  # a repeated block: long runs of equal windows in the sorted order
        block = draw(word_st(alphabet, min_size=1, max_size=5))
        word = (block * max_size)[:draw(st.integers(0, max_size))]
    return word, draw(st.integers(0, len(word))), group


def closed_windows(word, n, group):
    """The factors of length n of ``word`` with their images under ``group``."""
    base = windows(word, n)
    return base if group is None else {g.apply(w) for w in base for g in group.elements}


def all_orders_stable(source, length, n_max):
    """Oracle for stability_check: compares the factor sets at every order."""
    bound = source.max_prefix()
    if bound is not None and 2 * length > bound:
        return None
    short, long_ = source.prefix(length), source.prefix(2 * length)
    return all(windows(short, m) == windows(long_, m) for m in range(n_max + 1))


class TestIndexDifferential:
    """The sorted-window index, its closure walk and extension tables, the
    top-order stability check and the return-word merge against brute-force
    windows."""

    @given(case=indexed_word_st())
    @settings(max_examples=150, deadline=None)
    def test_index_matches_windows(self, case):
        word, n_max, group = case
        index = LanguageIndex(word, n_max, group)
        added = {}
        for n in range(n_max + 1):
            base = windows(word, n)
            closed = closed_windows(word, n, group)
            assert index.factors(n) == closed
            if closed != base:
                added[n] = closed - base
            for w in closed:
                assert index.occurrences(w) == tuple(
                    i for i in range(len(word) - n + 1) if word[i:i + n] == w
                )
        assert index.closure_added == added
        assert index.complexities() == [len(index.factors(n)) for n in range(n_max + 1)]

    @given(case=indexed_word_st())
    @example(case=("0001000100010001000", 6, binary_full_group()))  # closure adds 11, 111, ...
    @settings(max_examples=150, deadline=None)
    def test_sorted_factors_need_no_sort(self, case):
        # the levels keep lexicographic order, closure-added factors included
        word, n_max, group = case
        index = LanguageIndex(word, n_max, group)
        for n in range(n_max + 1):
            assert index.sorted_factors(n) == tuple(sorted(index.factors(n)))

    @given(case=indexed_word_st())
    @example(case=("0010200", 3, None))  # "0" has three left and three right letters
    @example(case=("0010", 4, reversal_group(BINARY)))  # closure adds 100 and 0100
    @settings(max_examples=150, deadline=None)
    def test_extensions_match_windows(self, case):
        # a·w, w·b and a·w·b tested for membership in the closed windows one and
        # two orders up, for every factor w, closure-added ones included; the
        # special and bispecial factors of each order follow from them
        word, n_max, group = case
        index = LanguageIndex(word, n_max, group)
        closed = [closed_windows(word, n, group) for n in range(n_max + 1)]
        letters = closed[1] if n_max >= 1 else set()
        antimorphisms = group.antimorphisms if group is not None else ()
        for n in range(n_max):
            left_special, right_special = set(), set()
            for w in closed[n]:
                left = {a for a in letters if a + w in closed[n + 1]}
                right = {b for b in letters if w + b in closed[n + 1]}
                assert index.lext(w) == left
                assert index.rext(w) == right
                if len(left) >= 2:
                    left_special.add(w)
                if len(right) >= 2:
                    right_special.add(w)
                if n + 2 > n_max:
                    continue
                assert index.bext(w) == {
                    (a, b) for a in letters for b in letters if a + w + b in closed[n + 2]
                }
                for theta in antimorphisms:
                    if theta.apply(w) == w:
                        assert index.pext(theta, w) == {
                            a for a in letters if a + w + theta.apply(a) in closed[n + 2]
                        }
            assert tuple(index.special_rows(n)) == tuple(sorted(left_special | right_special))
            assert index.bispecials(n) == tuple(sorted(left_special & right_special))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stability_matches_all_orders(self, data):
        alphabet = data.draw(alphabet_st())
        word = data.draw(word_st(alphabet, min_size=1, max_size=30))
        source = data.draw(st.sampled_from(
            [LiteralSource(alphabet, word), PeriodicSource(alphabet, word)]
        ))
        length = data.draw(st.integers(1, 40))
        n_max = data.draw(st.integers(0, length))
        expected = all_orders_stable(source, length, n_max)
        assert stability_check(source, length, n_max) is expected

    def test_stability_outcomes_and_edges(self):
        binary = Alphabet.from_size(2)
        for source, length, n_max, expected in [
            (PeriodicSource(binary, "0"), 3, 3, True),  # n_max == length
            (PeriodicSource(binary, "01"), 2, 2, False),  # "10" first appears after 2 letters
            (PeriodicSource(binary, "0110"), 7, 4, True),
            (LiteralSource(binary, "0110"), 2, 2, False),
            (LiteralSource(binary, "0101"), 2, 1, True),
            (LiteralSource(binary, "0101"), 3, 1, None),
        ]:
            assert stability_check(source, length, n_max) is expected
            assert all_orders_stable(source, length, n_max) is expected
        # a bounded source that cannot double answers None before the order is checked
        assert stability_check(LiteralSource(binary, "0101"), 3, 9) is None
        with pytest.raises(IndexRangeError):
            stability_check(PeriodicSource(binary, "01"), 3, 4)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_crw_records_match_set_union(self, data):
        group = data.draw(group_st())
        word = data.draw(word_st(group.alphabet, min_size=1) | closure_word_st(group))
        n_max = data.draw(st.integers(1, len(word)))
        index = LanguageIndex(word, n_max, group)
        assert crw_records(group, index, word, 1, n_max) == violating_crw_records(
            group, index, word, 1, n_max
        )


@st.composite
def orbit_column_case_st(draw):
    """A word, an order n_max <= |word|, a group to index it with, and a
    subgroup of that group; the group is random or generated by one
    antimorphism that need not be an involution."""
    if draw(st.booleans()):
        group = draw(group_st())
    else:
        group = SymmetryGroup.close([draw(antimorphism_st(draw(alphabet_st())))])
    word = draw(word_st(group.alphabet) | closure_word_st(group))
    sub = draw(st.sampled_from(group.subgroups()))
    return word, draw(st.integers(0, len(word))), group, sub


NON_ASCII = Alphabet(("é", "ß", "€"))

#: (id, word, n_max, group): edge cases of the distinct-window build
WINDOW_RUN_CASES = [
    ("one-letter", "0" * 20, 5, None),  # one distinct full window
    ("single-glyph", "0", 1, None),
    ("n_max-0", "0110100", 0, None),  # every window is empty
    ("n_max-length", "0110100", 7, None),  # one full window
    ("periodic", "012" * 10, 6, None),
    ("non-ascii", "é€ßéé€ßéß€", 4, None),
    ("non-ascii-group", "éßéé€é", 4, reversal_group(NON_ASCII)),
    ("closure-adds", "0010", 4, reversal_group(BINARY)),  # 100 and 0100
]


class TestWindowRuns:
    """The positions and runs of LanguageIndex, built from the distinct windows,
    against a sort of every position's window (``oracles.window_runs``)."""

    @staticmethod
    def check(word, n_max, group):
        index = LanguageIndex(word, n_max, group)
        order, levels = window_runs(word, n_max)
        assert index._order == order
        assert len(index._levels) == len(levels)
        for n, items in enumerate(levels):
            added = index.closure_added.get(n, frozenset())
            level = index._level(n)  # the additions merged in
            assert [item for item in level.items() if item[0] not in added] == items
            assert {level[w] for w in added} <= {(0, 0)}
            assert [index.occurrence_count(w) for w, _ in items] == [b - a for _, (a, b) in items]

    @pytest.mark.parametrize("word, n_max, group", [case[1:] for case in WINDOW_RUN_CASES],
                             ids=[case[0] for case in WINDOW_RUN_CASES])
    def test_pinned_cases(self, word, n_max, group):
        self.check(word, n_max, group)

    @given(case=indexed_word_st())
    @settings(max_examples=200, deadline=None)
    def test_order_and_runs_match_sorted_windows(self, case):
        self.check(*case)


@st.composite
def closure_case_st(draw):
    """A random or closure word of a random group, and an order n_max <= |word|."""
    group = draw(group_st())
    word = draw(word_st(group.alphabet, max_size=30) | closure_word_st(group, max_size=30))
    return word, draw(st.integers(0, len(word))), group


class TestClosureCut:
    """Closure below the top order, derived from the additions one order up,
    against the images of every window (``oracles.closure_additions``); and the
    additions, merged into their levels on the first ordered read, give the
    same answers whichever queries come first."""

    @given(case=closure_case_st())
    @example(case=("0010", 4, reversal_group(BINARY)))  # 100 is reached only as a suffix
    @example(case=("001011", 6, reversal_group(BINARY)))  # the additions stop at order 3
    @example(case=("0120", 4, rotation_group()))  # antimorphisms that are not involutions
    @example(case=("00100", 5, rotation_group()))  # the additions reach order 1
    @example(case=("0110100110010110", 8, reversal_group(BINARY)))  # closed at the top
    @settings(max_examples=150, deadline=None)
    def test_additions_match_images_of_windows(self, case):
        word, n_max, group = case
        assert LanguageIndex(word, n_max, group).closure_added == closure_additions(word, n_max, group)

    @staticmethod
    def unordered(index, probes):
        return ([index.factors(n) for n in range(index.n_max + 1)], index.complexities(),
                [(index.is_factor(w), index.occurrences(w), index.occurrence_count(w)) for w in probes])

    @staticmethod
    def ordered(index, levels):
        group, top = index.group, index.n_max
        return (
            [(index.special_rows(n), index.bispecials(n)) for n in range(top - 1, -1, -1)],
            [[(index.lext(w), index.rext(w)) for w in levels[n]] for n in range(top)],
            [[index.bext(w) for w in levels[n]] for n in range(top - 1)],
            [index.column(g, n) for g in group.elements for n in range(top, -1, -1)],
            [index.theta_palindromes(t, n) for t in group.antimorphisms for n in range(top + 1)],
            [index.sorted_factors(n) for n in range(top + 1)],
        )

    @given(case=closure_case_st())
    @example(case=("0010", 4, reversal_group(BINARY)))
    @example(case=("00100", 5, rotation_group()))
    @settings(max_examples=100, deadline=None)
    def test_query_order_does_not_matter(self, case):
        word, n_max, group = case
        levels = [sorted(closed_windows(word, n, group)) for n in range(n_max + 1)]
        probes = [w for level in levels for w in level]
        probes += [a * n for a in group.alphabet.glyphs for n in range(1, n_max + 1)]
        first, second = LanguageIndex(word, n_max, group), LanguageIndex(word, n_max, group)
        unordered = self.unordered(first, probes)
        ordered = self.ordered(second, levels)
        assert self.unordered(second, probes) == unordered
        assert self.ordered(first, levels) == ordered
        assert tuple(ordered[-1]) == tuple(map(tuple, levels))
        assert first.closure_added == second.closure_added == closure_additions(word, n_max, group)


#: per name: a group, and its subgroups (itself included) with three or more
#: antimorphisms
MANY_ANTIMORPHISMS = {name: (group, [s for s in group.subgroups() if len(s.antimorphisms) >= 3])
                      for name, group in (("two-swaps", two_swaps_reversal_group()),
                                          ("dihedral3", dihedral_group(3)),
                                          ("dihedral4", dihedral_group(4)),
                                          ("octa", octa_group()), ("hexa", hexa_group()))}


class TestOrbitColumns:
    """The orbit columns of the index and the representatives, orbits,
    palindromes, distinguishing flags and special lists read off them, against
    per-factor calls, for the indexing group and for a subgroup reading its
    columns."""

    @given(case=orbit_column_case_st())
    @example(case=("0001000100010001000", 6, binary_full_group(),  # closure adds 11, 111, ...
                   reversal_group(BINARY)))
    @example(case=("0123" * 5, 8, cyclic4_reversal_group(),  # a subgroup whose antimorphisms
                   SymmetryGroup.close([next(  # have order 4
                       t for t in cyclic4_reversal_group().antimorphisms if not t.is_involution()
                   )])))
    @settings(max_examples=150, deadline=None)
    def test_columns_match_per_factor_calls(self, case):
        word, n_max, group, sub = case
        index = LanguageIndex(word, n_max, group)
        for n in range(n_max + 1):
            level = index.sorted_factors(n)
            for h in (group, sub):
                expected = per_factor_orbit_data(h, index, n)
                assert {g: index.column(g, n) for g in h.elements} == expected.columns
                assert index.representatives(h, n) == expected.representatives
                assert index.orbits(h, n, range(len(level))) == expected.orbits
                assert index.is_distinguishing(h, n) == expected.distinguishing
            for theta in group.antimorphisms:
                assert index.theta_palindromes(theta, n) == tuple(
                    w for w in level if theta.apply(w) == w
                )
            if n < n_max:
                assert tuple(index.special_rows(n)) == expected.specials
                assert index.bispecials(n) == expected.bispecials
                assert index.special_rows(n) == {w: level.index(w) for w in expected.specials}

    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=100, deadline=None)
    def test_distinguishing_with_three_or_more_antimorphisms(self, data):
        # every pair of antimorphisms is compared, not only neighbours in the
        # group's order: on words over 2 and 3 the first and the third of the
        # two-swaps group agree while every two neighbours differ
        if data is None:
            name, word, n_max = "two-swaps", "2332322323", 4
        else:
            name = data.draw(st.sampled_from(sorted(MANY_ANTIMORPHISMS)))
            word = data.draw(word_st(MANY_ANTIMORPHISMS[name][0].alphabet, min_size=1, max_size=30))
            n_max = data.draw(st.integers(1, min(len(word), 6)))
        group, subgroups = MANY_ANTIMORPHISMS[name]
        index = LanguageIndex(word, n_max, group)
        for sub in subgroups:
            for n in range(1, n_max + 1):
                assert index.is_distinguishing(sub, n) == distinguishing(sub, index.factors(n))
        if data is None:
            assert not index.is_distinguishing(group, 2)
            a, b, c = group.antimorphisms[:3]
            assert a.apply("23") == c.apply("23") != b.apply("23")

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_theta_palindromes_in_any_query_order(self, data):
        # the two antimorphisms' palindromes of one order differ, so a cache
        # that mixed them up would show in some query order
        group = binary_full_group()
        word = data.draw(st.sampled_from([thue_morse_source().prefix(80), "0110" * 10 + "0101",
                                          "00110110010011"]))
        n_max = data.draw(st.integers(2, 8))
        index = LanguageIndex(word, n_max, group)
        queries = data.draw(st.permutations([(t, n) for t in group.antimorphisms
                                             for n in range(n_max + 1)]))
        for theta, n in queries + queries[::-1]:
            level = index.sorted_factors(n)
            assert index.theta_palindromes(theta, n) == tuple(compress(
                level, map(eq, level, index.column(theta, n))))


def saturate(text, group, n, pick):
    """``text`` with images of its factors of length n appended, one ``pick``
    of the missing ones at a time, until its factors of length n, and so those
    of every shorter length, are closed under ``group``; |text| >= n."""
    have = set(windows(text, n))
    missing = {g.apply(w) for w in have for g in group.elements} - have
    while missing:
        start = len(text) - n + 1
        text += pick(missing)
        new = {text[i:i + n] for i in range(start, len(text) - n + 1)} - have
        have |= new
        missing = (missing | {g.apply(w) for w in new for g in group.elements}) - have
    return text


@st.composite
def closed_word_st(draw):
    """A group (random, generated by one antimorphism that need not be an
    involution, or a test group whose antimorphisms have order 4), a
    subgroup with an antimorphism, a word whose factors up to order n_max are
    closed under the group, and n_max.  The word doubles a seed by random
    images of itself, which keeps many classes unique on both sides, and is
    then saturated."""
    group = draw(group_st() | st.sampled_from([cyclic4_antimorphism_group(), cyclic4_reversal_group()])
                 | alphabet_st().flatmap(antimorphism_st).map(lambda t: SymmetryGroup.close([t])))
    sub = draw(st.sampled_from([s for s in group.subgroups() if s.has_antimorphism]))
    word = draw(word_st(group.alphabet, min_size=1, max_size=3))
    for g in draw(st.lists(st.sampled_from(group.elements), min_size=2, max_size=6)):
        word += g.apply(word)
    size = len(group.alphabet.glyphs)
    n_max = draw(st.integers(2, max(k for k in range(2, 10) if size ** k <= 300)))
    assume(len(word) >= n_max)
    return group, sub, saturate(word, group, n_max, draw(st.sampled_from([min, max]))), n_max


@functools.cache
def preset_word(name):
    """A 600-letter prefix of a preset word, its group, and the subgroups of
    that group containing an antimorphism."""
    text, group = {
        "tm": lambda: (thue_morse_source().prefix(600), binary_full_group()),
        "fib": lambda: (fibonacci_source().prefix(600), reversal_group(BINARY)),
        "t33": lambda: (generalized_thue_morse(3, 3).prefix(600), dihedral_group(3)),
        "octa": lambda: (octa_source().prefix(600), octa_group()),
        "hexa": lambda: (hexa_text(600), hexa_group()),
    }[name]()
    return text, group, tuple(s for s in group.subgroups() if s.has_antimorphism)


class TestCrwOnClosedLanguages:
    """Return words derived from order n + 1 against the per-occurrence
    oracle, on closed languages, where the derivation applies; below the top
    order, the classes that it does not derive walk (Lemma 2)."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_subgroups_of_preset_words(self, data):
        name = data.draw(st.sampled_from(["tm", "fib", "t33", "octa", "hexa"]))
        text, group, subgroups = preset_word(name)
        text = text[:data.draw(st.integers(50, 600))]
        sub = data.draw(st.sampled_from(subgroups))
        n_max = data.draw(st.integers(1, 40))
        # orders below the top one chain off the orders above them
        n_hi = data.draw(st.integers(1, n_max))
        n_lo = data.draw(st.integers(1, n_hi))
        index = LanguageIndex(text, n_max, group)  # the full group, as subgroup_scan indexes
        assume(index.g_closed)
        assert crw_records(sub, index, text, n_lo, n_hi) == violating_crw_records(
            sub, index, text, n_lo, n_hi
        )

    @given(case=closed_word_st(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_order_below_the_top(self, case, data):
        # the order just below the top, whose classes derive from the top
        # order by Lemma 1
        group, sub, word, n_max = case
        n_hi = data.draw(st.integers(2, n_max))
        index = LanguageIndex(word, n_max, group)
        assert index.g_closed
        assert crw_records(sub, index, word, n_hi - 1, n_hi) == violating_crw_records(
            sub, index, word, n_hi - 1, n_hi
        )

    @given(case=closed_word_st())
    @settings(max_examples=100, deadline=None)
    def test_closed_words_every_order(self, case):
        group, sub, word, n_max = case
        index = LanguageIndex(word, n_max, group)
        assert crw_records(sub, index, word, 1, n_max) == violating_crw_records(
            sub, index, word, 1, n_max
        )

    @given(half=word_st(BINARY, max_size=9), middle=st.sampled_from(["", "0", "1"]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_palindromes_under_reversal(self, half, middle, data):
        # the factors of a palindrome are closed under reversal at every order,
        # and its return words from 0 and to the end are often no palindromes
        word = half + middle + half[::-1]
        assume(word)
        group = reversal_group(BINARY)
        n_max = data.draw(st.integers(1, len(word)))
        n_hi = data.draw(st.integers(1, n_max))
        index = LanguageIndex(word, n_max, group)
        assert index.g_closed
        assert crw_records(group, index, word, 1, n_hi) == violating_crw_records(
            group, index, word, 1, n_hi
        )

    @pytest.mark.parametrize("name", ["tm", "fib", "t33", "octa", "hexa"])
    def test_closed_index_every_subgroup(self, name):
        text, group, subgroups = preset_word(name)
        index = LanguageIndex(text, 16, group)
        assert index.g_closed
        for sub in subgroups:
            assert crw_records(sub, index, text, 1, 16) == violating_crw_records(
                sub, index, text, 1, 16
            )


class TestTlsCore:
    """``tls_verdict`` reads the tuples of the graph core; the graph objects
    of ``undirected_symmetry_graph`` give the same verdict."""

    @given(case=closed_word_st())
    @example(case=(binary_full_group(), reversal_group(BINARY), thue_morse_source().prefix(200), 6))
    @settings(max_examples=100, deadline=None)
    def test_verdict_from_the_graph_objects(self, case):
        group, sub, word, n_max = case
        index = LanguageIndex(word, n_max, group)
        for h in (group, sub):
            for n in range(1, n_max):
                assert outcome(tls_verdict, h, index, n) == outcome(graph_tls_verdict, h, index, n)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of the error it raises."""
    try:
        return f(*args)
    except SymrichError as error:
        return type(error), str(error)


class TestScanDecisions:
    """``subgroup_scan`` decides each proper subgroup from the highest failing
    entry of each characterization, reading the tree-like structure and the
    return words top-down to their first failing order; its results equal
    those of a full ``verify_text`` report per subgroup, and the highest
    failing orders and the decision of each proper subgroup equal its
    report's."""

    @staticmethod
    def check(index):
        reports = {}
        expected = outcome(subgroup_scan_reference, index, reports)
        assert outcome(subgroup_scan, index) == expected
        for sub, report in reports.items():
            if len(sub) < index.group.order:
                highest = _highest_failures(sub, index)
                assert highest["tls"] == max((v.order for v in report.tls if not v.satisfied),
                                             default=None)
                assert highest["return-words"] == max((r.n for r in report.crw), default=None)
                assert _decide(highest, 1, report.n_max, sub.is_involutively_generated()) == (
                    report.verdicts, report.agreement_ok, report.candidate_threshold,
                    report.contradiction, report.overall)

    @given(case=closed_word_st())
    @example(case=(binary_full_group(), None, "00110011", 5))  # almost rich under the exchange
    @example(case=(two_swaps_reversal_group(), None, "011001", 3))  # inconsistent
    @settings(max_examples=100, deadline=None)
    def test_closed_words(self, case):
        group, _, word, n_max = case
        assume(n_max >= 3)
        self.check(LanguageIndex(word, n_max, group))

    def test_pinned_outcomes(self):
        # the examples pinned above: a proper subgroup that is almost rich, and
        # one that is inconsistent, as its complexity and bispecial verdicts
        # pass while the other four fail
        almost = subgroup_scan(LanguageIndex("00110011", 5, binary_full_group()))
        assert [(r.group_id, r.overall) for r in almost if r.overall != RICH] == [
            ("{m:01,a:10}", ALMOST)]
        inconsistent = subgroup_scan(LanguageIndex("011001", 3, two_swaps_reversal_group()))
        assert [(r.group_id, r.overall) for r in inconsistent if r.overall == INCONSISTENT] == [
            ("{m:0123,m:0132,a:1023,a:1032}", INCONSISTENT)]

    @given(name=st.sampled_from(["tm", "fib", "t33", "octa", "hexa"]), length=st.integers(60, 600),
           n_max=st.integers(3, 14))
    @example(name="tm", length=60, n_max=4)
    @example(name="hexa", length=60, n_max=6)
    @settings(max_examples=40, deadline=None)
    def test_preset_words(self, name, length, n_max):
        text, group, _ = preset_word(name)
        self.check(LanguageIndex(text[:length], n_max, group))


class TestCrwDeferredReads:
    """The tables of a ``LanguageIndex`` are built on first read, so the
    records must not depend on the order in which the subgroups read one shared
    index, nor on whether the orders are read as one range or one by one."""

    @pytest.mark.parametrize("name", ["tm", "fib", "t33", "octa", "hexa"])
    def test_preset_subgroups(self, name):
        text, group, subgroups = preset_word(name)
        fresh = LanguageIndex(text, 16, group)
        expected = {sub: violating_crw_records(sub, fresh, text, 1, 16) for sub in subgroups}
        for order in (subgroups, subgroups[::-1]):
            index = LanguageIndex(text, 16, group)
            for sub in order:
                assert crw_records(sub, index, text, 1, 16) == expected[sub]
        index = LanguageIndex(text, 16, group)
        for sub in subgroups[::-1]:
            by_order = [r for n in range(16, 0, -1) for r in crw_records(sub, index, text, n, n)]
            assert sorted(by_order) == sorted(expected[sub])


class TestWitnessRule:
    """A verdict has a witness exactly when it fails, at every threshold, on
    closed languages and on random words (whose closure additions refute)."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_witness_iff_failing(self, data):
        if data.draw(st.booleans()):
            group, sub, word, n_max = data.draw(closed_word_st())
            assume(n_max >= 3)
        else:
            sub = group = data.draw(group_st())
            n_max = data.draw(st.integers(3, 8))
            word = data.draw(word_st(group.alphabet, min_size=n_max))
        index = LanguageIndex(word, n_max, group)
        for threshold in range(1, n_max - 1):
            try:
                rep = verify_text(sub, index, threshold=threshold, stability=True)
            except InsufficientPrefixError:  # a graph walk runs off a short word
                assume(False)
            assert set(rep.witnesses) == {name for name, ok in rep.verdicts.items() if not ok}


@st.composite
def walk_case_st(draw):
    """A group (random, or generated by one antimorphism that need not be an
    involution), a word over its alphabet, and orders n_lo <= n_hi <= n_max <=
    |word|.  The word is random, grown by closure, or a repeated block, whose
    classes recur at short distances, so that many walks end within their
    budget."""
    if draw(st.booleans()):
        group = draw(group_st())
    else:
        group = SymmetryGroup.close([draw(antimorphism_st(draw(alphabet_st())))])
    block = draw(word_st(group.alphabet, min_size=1, max_size=5))
    word = draw(word_st(group.alphabet, min_size=1) | closure_word_st(group)
                | st.integers(1, 40).map(lambda size: (block * size)[:size]))
    n_max = draw(st.integers(1, len(word)))
    n_hi = draw(st.integers(1, n_max))
    return group, word, draw(st.integers(1, n_hi)), n_hi, n_max


class TestCrwWalk:
    """The walk of Lemma 2 in ``crw_records`` against the per-occurrence
    oracle.  An index built without a group has no closure additions and is
    not known to be closed, so every class below the top order tries the walk."""

    @given(case=walk_case_st())
    @settings(max_examples=200, deadline=None)
    def test_index_without_group(self, case):
        group, word, n_lo, n_hi, n_max = case
        index = LanguageIndex(word, n_max)
        assert not index.closure_added
        assert crw_records(group, index, word, n_lo, n_hi) == violating_crw_records(
            group, index, word, n_lo, n_hi
        )

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walk_within_its_budget(self, data):
        # the budget is the walk's one guard: a walk reads the right extensions
        # of at most one word more than its class has occurrences, so it never
        # costs more than slicing the class
        if data.draw(st.booleans()):
            group, sub, word, n_max = data.draw(closed_word_st())
            index = LanguageIndex(word, n_max, group)
        else:
            sub, word, _, _, n_max = data.draw(walk_case_st())
            index = LanguageIndex(word, n_max)
        module = importlib.import_module("symrich.verify")
        real_walk, real_rext = module._walk_returns, index.rext
        reads, walks = [0], []

        def rext(w):
            reads[0] += 1
            return real_rext(w)

        def walk(index, members):
            reads[0] = 0
            result = real_walk(index, members)
            walks.append((reads[0], sum(map(index.occurrence_count, members))))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_walk_returns", walk)
            patch.setattr(index, "rext", rext)
            crw_records(sub, index, word, 1, n_max)
        assert all(read <= budget + 1 for read, budget in walks)


def edges_or_error(build, group, index, n):
    """The directed edges ``build`` finds at order n, or its error's type and message."""
    try:
        result = build(group, index, n)
    except SymrichError as e:
        return type(e), str(e)
    return getattr(result, "directed_edges", result)


class TestEdgeWalkDifferential:
    """The forward edge walk of ``directed_symmetry_graph`` against the
    sorted-position oracle, on preset words indexed under their full group and
    with no group; only a group-less index lets the walk run off the prefix."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_subgroups_of_preset_words(self, data):
        name = data.draw(st.sampled_from(["tm", "fib", "t33", "octa", "hexa"]))
        text, group, subgroups = preset_word(name)
        text = text[:data.draw(st.integers(12, 600))]
        sub = data.draw(st.sampled_from(subgroups))
        n_max = data.draw(st.integers(2, 12))
        for index in (LanguageIndex(text, n_max, group), LanguageIndex(text, n_max)):
            for n in range(1, n_max):
                assert edges_or_error(directed_symmetry_graph, sub, index, n) == edges_or_error(
                    position_walk_edges, sub, index, n
                )

    def test_walk_runs_off_the_prefix(self):
        text, group, _ = preset_word("tm")
        index = LanguageIndex(text[:13], 6)
        reversal = reversal_group(BINARY)
        assert edges_or_error(directed_symmetry_graph, reversal, index, 4) == (
            InsufficientPrefixError,
            "edge walk from special factor '1001' with extension '0' runs off "
            "the prefix before reaching another special factor; extend the prefix",
        )
        assert edges_or_error(position_walk_edges, reversal, index, 4) == edges_or_error(
            directed_symmetry_graph, reversal, index, 4
        )


@st.composite
def returns_case_st(draw, groups=group_st()):
    """A group of ``groups``, a text, and a factor that occurs, an orbit image
    of one that occurs, any word up to two letters longer than the text, or
    the text."""
    group = draw(groups)
    text = draw(word_st(group.alphabet, min_size=1))
    i = draw(st.integers(0, len(text) - 1))
    occurring = text[i:draw(st.integers(i + 1, len(text)))]
    return group, text, draw(st.sampled_from([
        occurring, draw(st.sampled_from(group.elements)).apply(occurring),
        draw(word_st(group.alphabet, min_size=1, max_size=len(text) + 2)), text,
    ]))


class TestCompleteReturnWords:
    @given(case=returns_case_st(group_st() | alphabet_st().flatmap(antimorphism_st).map(
        lambda t: SymmetryGroup.close([t]))))
    @example(case=(binary_full_group(), "0110", "01"))  # 01 at 0, its image 10 at 2
    @settings(max_examples=200, deadline=None)
    def test_matches_find_oracle(self, case):
        # the groups include those generated by one antimorphism that need not
        # be an involution
        group, text, word = case
        assert complete_return_words(group, text, word) == tuple(
            sorted(complete_g_return_words(group, word, text))
        )


class TestReturnsDifferential:
    @given(case=returns_case_st())
    @example(case=(binary_full_group(), "0110", "1001"))  # only its image 0110 occurs
    @example(case=(binary_full_group(), "0011", "010"))  # no member of the class occurs
    @example(case=(binary_full_group(), "0011", "00110"))  # longer than the text
    @settings(max_examples=150, deadline=None)
    def test_cli_returns_matches_find_oracle(self, case, tmp_path_factory):
        """CLI ``returns``, on a literal config whose generators are all of the group."""
        group, text, factor = case
        config = tmp_path_factory.getbasetemp() / "returns.yaml"
        config.write_text(json.dumps({  # JSON is YAML
            "alphabet": "".join(group.alphabet.glyphs),
            "word": {"kind": "literal", "word": text},
            "group": [{"kind": "antimorphism" if g.antimorphic else "morphism",
                       "map": [f"{a} -> {g.image_of(a)}" for a in group.alphabet.glyphs]}
                      for g in group.elements],
            "analysis": {"length": len(text)},
        }))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(config), "returns", factor])
        if len(factor) > len(text):
            expected = (EXIT_CONFIG, "", f"error: factor of length {len(factor)} cannot occur "
                                         f"in text of length {len(text)}\n")
        else:
            lines = [f"complete return words of class [{group.class_representative(factor)}]:"]
            lines += [f"  {v}" for v in sorted(complete_g_return_words(group, factor, text))]
            expected = (0, "\n".join(lines) + "\n", "")
        assert (code, out.getvalue(), err.getvalue()) == expected


class TestWitnessInvariants:
    @given(gw=group_and_word_st(max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_fixers_involutive_on_full_support_words(self, gw):
        group, word = gw
        assume(set(word) == set(group.alphabet.glyphs))
        for theta in group.antimorphic_fixers(word):
            assert theta.is_involution()
