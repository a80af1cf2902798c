"""Property-based tests of the algebraic invariants.

The separate acceptance module runs a seeded bulk fuzz; here hypothesis
searches adversarially over random words, maps, and small groups.
"""

from hypothesis import assume, given, settings, strategies as st

from symrich import (
    Alphabet,
    LanguageIndex,
    SymmetryGroup,
    SymmetryMap,
    classical_palindromes,
    defect_profile,
    g_defect,
    g_lps,
    gamma_g,
    prefix_palindrome_table,
    theta_lps,
    theta_palindromic_factors,
    theta_richness,
)
from symrich.symmetry import dihedral_group
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


def brute_lps(antimorphisms, word):
    """Oracle: the longest suffix of ``word`` fixed by one of the antimorphisms."""
    return next(
        (word[i:] for i in range(len(word)) if any(t.apply(word[i:]) == word[i:] for t in antimorphisms)),
        "",
    )


class TestLpsDifferential:
    """The single lps scan against brute-force oracles, on groups whose
    antimorphisms need not be involutions."""

    @given(gw=group_and_word_st())
    @settings(max_examples=150, deadline=None)
    def test_g_lps_and_theta_lps(self, gw):
        group, word = gw
        assert g_lps(group, word) == brute_lps(group.antimorphisms, word)
        for theta in group.antimorphisms:
            assert theta_lps(theta, word) == brute_lps([theta], word)

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
            assert row.g_lps == g_lps(group, prefix)

    @given(gw=group_and_word_st())
    @settings(max_examples=150, deadline=None)
    def test_profile_lps_column(self, gw):
        group, word = gw
        profile = defect_profile(group, word)
        assert profile.lps == tuple(len(g_lps(group, word[:i])) for i in range(len(word) + 1))


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
        assert 0 <= gamma_g(group, word) <= len(set(word))


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


class TestWitnessInvariants:
    @given(gw=group_and_word_st(max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_fixers_involutive_on_full_support_words(self, gw):
        group, word = gw
        assume(set(word) == set(group.alphabet.glyphs))
        for theta in group.antimorphic_fixers(word):
            assert theta.is_involution()
