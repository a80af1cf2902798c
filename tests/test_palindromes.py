import pytest

from oracles import (
    classical_palindromes,
    factors,
    g_occurrences,
    theta_palindromic_factors,
    theta_richness,
)
from symrich import (
    AlphabetError,
    ConsistencyError,
    GroupError,
    defect_profile,
    g_defect,
    g_lps,
    prefix_palindrome_table,
)
from symrich.palindromes import _lacuna_profile, _linked_scan
from symrich.presets import BINARY, exchange_group
from symrich.symmetry import SymmetryGroup, SymmetryMap
from symrich.verify import complete_return_words

E = SymmetryMap(BINARY, ("1", "0"), antimorphic=True)

P11 = "01101001100"  # length-11 prefix of the binary digit-sum word


def brute_pal_class_count(group, word):
    """Oracle: enumerate every factor, collect palindromic orbit classes."""
    return len({group.class_representative(s) for s in factors(word) if group.is_g_palindrome(s)})


def brute_gamma(group, word):
    """Oracle: letter orbit classes occurring in ``word`` that no antimorphism fixes."""
    return len({
        frozenset(g.apply(a) for g in group.elements)
        for a in set(word)
        if not group.antimorphic_fixers(a)
    })


class TestWitnesses:
    def test_fixed_by_reversal_only(self, i2_2):
        fixers = i2_2.antimorphic_fixers("001100")
        assert [t.name for t in fixers] == ["a:01"]

    def test_fixed_by_exchange_only(self, i2_2):
        fixers = i2_2.antimorphic_fixers("01")
        assert [t.name for t in fixers] == ["a:10"]

    def test_empty_word_fixed_by_all_antimorphisms(self, i2_2):
        fixers = i2_2.antimorphic_fixers("")
        assert len(fixers) == len(i2_2.antimorphisms)

    def test_fixers_involutive_when_all_letters_present(self, i2_3):
        for word in ("012210", "0120210", "21012"):
            for t in i2_3.antimorphic_fixers(word):
                assert t.is_involution()


class TestOccurrences:
    def test_orbit_occurrences(self, i2_2):
        assert g_occurrences(i2_2, "011", P11) == [0, 1, 4, 5, 6, 7, 8]

    def test_unioccurrent_factor(self, i2_2):
        assert "001100" in P11 and len(g_occurrences(i2_2, "001100", P11)) == 1

    def test_word_in_itself(self, i2_2):
        assert g_occurrences(i2_2, P11, P11) == [0]

    def test_empty_word_occurrences(self, i2_2):
        assert g_occurrences(i2_2, "", "011") == [0, 1, 2, 3]
        assert len(g_occurrences(i2_2, "", "011")) != 1  # so ε is not unioccurrent there

    def test_return_words(self, i2_2):
        returns = set(complete_return_words(i2_2, P11, "011"))
        assert returns == {"0110", "110100", "1001", "0011", "1100"}

    def test_fibonacci_return_words_of_010(self, fib_text, id_r):
        returns = set(complete_return_words(id_r, fib_text, "010"))
        assert returns == {"010010", "01010"}

    def test_return_words_of_letter_class_all_palindromic(self, i2_2, tm_text):
        returns = complete_return_words(i2_2, tm_text[:200], "0")
        assert returns and all(i2_2.is_g_palindrome(v) for v in returns)


class TestLps:
    def test_prefix_11(self, i2_2):
        assert g_lps(i2_2, P11) == "001100"

    def test_prefix_7(self, i2_2, tm_text):
        assert g_lps(i2_2, tm_text[:7]) == "110100"

    def test_letter_with_no_fixer(self):
        g = exchange_group()
        assert g_lps(g, "0") == ""
        # a group with no antimorphism fixes only the empty suffix
        morphisms = SymmetryGroup.close([SymmetryMap(BINARY, ("1", "0"), antimorphic=False)])
        assert g_lps(morphisms, "00") == ""

    def test_theta_lps(self, id_r):
        # the lps of the group {id, theta} is the longest theta-palindromic suffix
        assert g_lps(id_r, "011010011") == "11"
        assert g_lps(exchange_group(), "011010011") == "0011"
        assert g_lps(exchange_group(), "0110100110") == "100110"


class TestGamma:
    def test_zero_with_reversal(self, id_r, i2_2):
        for word in ("0", "0110", "010101"):
            assert brute_gamma(id_r, word) == 0
            assert brute_gamma(i2_2, word) == 0

    def test_exchange_group_counts_class(self):
        assert brute_gamma(exchange_group(), "01") == 1
        assert brute_gamma(exchange_group(), "0") == 1

    def test_empty_word(self, i2_2):
        assert brute_gamma(exchange_group(), "") == 0
        assert brute_gamma(i2_2, "") == 0


class TestDefect:
    def test_balanced_block(self, i2_2):
        profile = g_defect(i2_2, "0110")
        assert profile.final == 0
        assert profile.pal_classes[-1] == 5  # classes of: eps, 0, 11, 01, 0110

    def test_classical_abca(self):
        from symrich import Alphabet

        g = SymmetryGroup.close([SymmetryMap.reversal(Alphabet.from_string("abc"))])
        profile = g_defect(g, "abca")
        assert profile.final == 1
        assert profile.lacunas == (4,)

    def test_invariance_under_group(self, i2_2):
        for word in ("0110100", "0011010", "1111", "010010"):
            base = g_defect(i2_2, word).final
            for mu in i2_2.elements:
                assert g_defect(i2_2, mu.apply(word)).final == base

    def test_classical_specialization(self, id_r):
        # for the two-element reversal group the defect equals the classical one
        for word in ("0110100110", "0001000", "010101", "0100110"):
            assert g_defect(id_r, word).final == len(word) + 1 - len(classical_palindromes(word))

    def test_matches_brute_class_count(self, i2_2, id_r):
        for group in (i2_2, id_r):
            for word in ("011010011001011010", "000111000", "0101101001"):
                profile = g_defect(group, word)
                pal = brute_pal_class_count(group, word)
                assert profile.pal_classes[-1] == pal
                assert profile.final == len(word) + 1 - pal - brute_gamma(group, word)

    def test_fast_profile_equals_dual(self, i2_2, tm_text):
        text = tm_text[:300]
        assert defect_profile(i2_2, text).defect == g_defect(i2_2, text).defect

    def test_out_of_sync_bookkeeping_is_loud(self, id_r):
        # the 1 of 0010 starts a new letter class fixed by reversal, so its lps is
        # unioccurrent; marked as born earlier, it breaks the identity from position 3 on
        word = "0010"
        scan = _linked_scan(id_r, word)
        node = scan.ends[0][3]
        assert (scan.length[node], scan.born[node]) == (1, 3)
        assert _lacuna_profile(id_r, word, scan, id_r) == defect_profile(id_r, word)
        scan.born[node] = 1
        with pytest.raises(ConsistencyError, match=r"out of sync at position 3 of '0010'$"):
            _lacuna_profile(id_r, word, scan, id_r)

    def test_monotone_steps(self, i2_2):
        word = "01101001100101101"
        profile = g_defect(i2_2, word)
        for a, b in zip(profile.defect, profile.defect[1:]):
            assert a <= b <= a + 1


class TestClassicalAndTheta:
    def test_prefix_counts_table_row_10(self, tm_text):
        p10 = tm_text[:10]
        assert len(classical_palindromes(p10)) == 9
        assert len(theta_palindromic_factors(E, p10)) == 8

    def test_alternating_words_are_exchange_rich(self):
        for word in ("010101", "101010", "0101010"):
            out = theta_richness(E, word)
            assert out.is_rich

    def test_fibonacci_prefixes_are_rich(self, fib_text):
        for n in (1, 5, 20, 73, 200):
            assert len(classical_palindromes(fib_text[:n])) == n + 1

    def test_bounds_hold(self, tm_text):
        for n in (7, 33, 100):
            word = tm_text[:n]
            assert len(classical_palindromes(word)) <= n + 1
            out = theta_richness(E, word)
            assert out.pal_count <= n + 1 - out.gamma

    def test_non_involutive_theta_rejected(self):
        from symrich import Alphabet

        four_cycle = SymmetryMap(Alphabet.from_string("0123"), ("1", "2", "3", "0"),
                                 antimorphic=True)
        with pytest.raises(GroupError):
            theta_richness(four_cycle, "0123")


class TestPrefixTable:
    def test_first_rows(self, i2_2, tm_text):
        rows = prefix_palindrome_table(i2_2, tm_text[:6])
        assert [(r.n, r.theta_counts, r.g_lps) for r in rows[:4]] == [
            (0, (1, 1), ""),
            (1, (2, 1), "0"),
            (2, (3, 2), "01"),
            (3, (4, 2), "11"),
        ]

    def test_counts_match_brute_enumeration(self, i2_2, tm_text):
        text = tm_text[:40]
        rows = prefix_palindrome_table(i2_2, text)
        for n in (9, 17, 40):
            assert rows[n].theta_counts[0] == len(classical_palindromes(text[:n]))
            assert rows[n].theta_counts[1] == len(theta_palindromic_factors(E, text[:n]))


class TestForeignGlyphs:
    """Every lps and defect entry point rejects a glyph outside the alphabet."""

    def test_defect_profile(self, i2_2):
        with pytest.raises(AlphabetError, match="'a'"):
            defect_profile(i2_2, "0a1")

    def test_g_lps(self, i2_2):
        with pytest.raises(AlphabetError, match="'a'"):
            g_lps(i2_2, "0a1")

    def test_prefix_palindrome_table(self, i2_2):
        with pytest.raises(AlphabetError, match="'a'"):
            prefix_palindrome_table(i2_2, "0a1")
