"""Property-based tests of the algebraic invariants.

The separate acceptance module runs a seeded bulk fuzz; here hypothesis
searches adversarially over random words, maps, and small groups.
"""

import contextlib
import functools
import io
import json

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from oracles import (
    brute_lps,
    classical_palindromes,
    closure_involutively_generated,
    closure_subgroups,
    complete_g_return_words,
    position_walk_edges,
    set_union_crw_records,
    theta_palindromic_factors,
    theta_richness,
    windows,
)
from symrich import (
    Alphabet,
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
)
from symrich.cli import EXIT_CONFIG, main
from symrich.palindromes import _palindrome_scan
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
from symrich.verify import crw_records
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
        classes, fixed = group.letter_classes(), group.letter_fixed()
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
    @settings(max_examples=150, deadline=None)
    def test_extensions_match_windows(self, case):
        # a·w, w·b and a·w·b tested for membership in the closed windows one and
        # two orders up, for every factor w, closure-added ones included
        word, n_max, group = case
        index = LanguageIndex(word, n_max, group)
        closed = [closed_windows(word, n, group) for n in range(n_max + 1)]
        letters = closed[1] if n_max >= 1 else set()
        antimorphisms = group.antimorphisms if group is not None else ()
        for n in range(n_max):
            for w in closed[n]:
                assert index.lext(w) == {a for a in letters if a + w in closed[n + 1]}
                assert index.rext(w) == {b for b in letters if w + b in closed[n + 1]}
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
        assert crw_records(group, index, word, 1, n_max) == set_union_crw_records(
            group, index, word, 1, n_max
        )


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
    """Return words derived from order n + 2 against the per-occurrence
    oracle, on closed languages, where the derivation applies."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_subgroups_of_preset_words(self, data):
        name = data.draw(st.sampled_from(["tm", "fib", "t33", "octa", "hexa"]))
        text, group, subgroups = preset_word(name)
        text = text[:data.draw(st.integers(50, 600))]
        sub = data.draw(st.sampled_from(subgroups))
        n_max = data.draw(st.integers(1, 20))
        index = LanguageIndex(text, n_max, group)  # the full group, as subgroup_scan indexes
        assume(index.g_closed)
        assert crw_records(sub, index, text, 1, n_max) == set_union_crw_records(
            sub, index, text, 1, n_max
        )

    @pytest.mark.parametrize("name", ["tm", "fib", "t33", "octa", "hexa"])
    def test_closed_index_every_subgroup(self, name):
        text, group, subgroups = preset_word(name)
        index = LanguageIndex(text, 16, group)
        assert index.g_closed
        for sub in subgroups:
            assert crw_records(sub, index, text, 1, 16) == set_union_crw_records(
                sub, index, text, 1, 16
            )


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
def returns_case_st(draw):
    """A group, a text, and a factor that occurs, an orbit image of one that
    occurs, any word up to two letters longer than the text, or the text."""
    group = draw(group_st())
    text = draw(word_st(group.alphabet, min_size=1))
    i = draw(st.integers(0, len(text) - 1))
    occurring = text[i:draw(st.integers(i + 1, len(text)))]
    return group, text, draw(st.sampled_from([
        occurring, draw(st.sampled_from(group.elements)).apply(occurring),
        draw(word_st(group.alphabet, min_size=1, max_size=len(text) + 2)), text,
    ]))


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
