import logging

import pytest

from oracles import windows
from symrich import ConsistencyError, GroupError, IndexRangeError, LanguageIndex, stability_check
from symrich.presets import (
    BINARY,
    binary_full_group,
    fibonacci_source,
    generalized_thue_morse,
    octa_group,
    octa_source,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import SymmetryMap

R = SymmetryMap.reversal(BINARY)


class TestBuild:
    def test_fibonacci_level_3(self, fib_index):
        assert set(fib_index.factors(3)) == {"101", "010", "100", "001"}

    def test_fibonacci_level_4(self, fib_index):
        assert len(fib_index.factors(4)) == 5
        assert set(fib_index.factors(4)) == {"1001", "1010", "0100", "0010", "0101"}

    def test_t33_level_3(self, t33_index):
        assert len(t33_index.factors(3)) == 15
        assert tuple(t33_index.special_rows(3)) == ("012", "120", "201")

    def test_occurrences_consistent(self, tm_index, tm_text):
        for w in ("0", "011", "0110"):
            occ = tm_index.occurrences(w)
            assert list(occ) == [i for i in range(len(tm_text) - len(w) + 1)
                                 if tm_text[i:i + len(w)] == w]

    def test_factor_sets_match_windows(self, tm_index, tm_text):
        for n in (1, 2, 5, 9):
            assert set(tm_index.factors(n)) == windows(tm_text, n)

    def test_n_max_bound(self):
        with pytest.raises(IndexRangeError):
            LanguageIndex("0101", 5)

    def test_closure_records_added_factors(self):
        # "01" is not reversal-closed: closure must add "10"
        index = LanguageIndex("001", 2, reversal_group(BINARY))
        assert index.closure_added
        assert "10" in index.factors(2)
        assert index.occurrences("10") == ()
        assert not index.g_closed

    def test_closure_adds_nothing_on_long_prefixes(self, tm_index, fib_index, t33_index):
        for index in (tm_index, fib_index, t33_index):
            assert index.g_closed

    def test_closure_fails_only_above_an_order(self):
        # the reversal images of the factors of "0010" occur up to length 2, not from 3 on
        index = LanguageIndex("0010", 4, reversal_group(BINARY))
        assert index.closure_added == {3: frozenset({"100"}), 4: frozenset({"0100"})}
        assert index.factors(2) == {"00", "01", "10"}
        assert index.factors(3) == {"001", "010", "100"}
        assert index.occurrences("100") == ()
        # the closure-added "100" extends "10" to the right and "00" to the left
        assert index.rext("10") == {"0"} and index.lext("00") == {"1"}
        assert index.bext("0") == {("0", "1"), ("1", "0")}

    def test_closure_additions_are_logged(self, caplog, tm_text):
        caplog.set_level(logging.INFO, logger="symrich")
        LanguageIndex(tm_text, 8, reversal_group(BINARY))  # closed: no record
        assert caplog.records == []
        LanguageIndex("0010", 4, reversal_group(BINARY))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("symrich", logging.INFO,
             "group closure added factors to the index: 1 of length 3, 1 of length 4"),
        ]

    @pytest.mark.parametrize("word,n_max,group", [
        ("0010", 4, reversal_group(BINARY)),  # closure adds at orders 4 and 3
        ("0110100110010110", 8, reversal_group(BINARY)),  # closed at the top order
        ("0001000100010001000", 6, binary_full_group()),  # three maps; closure adds down to 11
    ], ids=["0010", "thue-morse", "three-maps"])
    def test_closure_translates_the_top_order_only(self, monkeypatch, word, n_max, group):
        # the top-order lemma: each non-identity map translates the joined top level
        # once, and every order below is derived from the additions above it
        images = []
        apply = SymmetryMap.apply

        def spy(g, w):
            images.append((g, w))
            return apply(g, w)

        monkeypatch.setattr(SymmetryMap, "apply", spy)
        LanguageIndex(word, n_max, group)
        top = "".join(sorted(windows(word, n_max)))
        assert images == [(g, top) for g in group.elements if not g.is_identity()]


class TestExtensions:
    def test_extension_sets_match_definition(self, tm_index):
        for w in ("0", "01", "011", "0110"):
            assert tm_index.lext(w) == {a for a in "01" if tm_index.is_factor(a + w)}
            assert tm_index.rext(w) == {a for a in "01" if tm_index.is_factor(w + a)}

    def test_bilateral_order_fibonacci(self, fib_index):
        assert fib_index.bext("010") == {("0", "0"), ("0", "1"), ("1", "0")}
        assert fib_index.bilateral_order("010") == 0

    def test_non_bispecial_has_zero_bilateral(self, fib_index):
        # one left, one right, one bilateral extension
        w = "00"
        assert len(fib_index.lext(w)) == len(fib_index.rext(w)) == len(fib_index.bext(w)) == 1
        assert fib_index.bilateral_order(w) == 0

    def test_octa_letter_bispecials(self):
        index = LanguageIndex(octa_source().prefix(500), 4, octa_group())
        for w in index.bispecials(1):
            assert index.bilateral_order(w) == 0

    def test_specials_flags(self, tm_index):
        assert tm_index.is_left_special("011") and not tm_index.is_right_special("011")
        assert tm_index.is_bispecial("010")

    def test_missing_factor_rejected(self, tm_index):
        with pytest.raises(IndexRangeError):
            tm_index.lext("000")

    @pytest.mark.parametrize("query, w, room", [
        ("lext", "001", 1), ("rext", "001", 1),
        ("bext", "01", 2), ("bilateral_order", "01", 2),
        # "00" is a prefix of the text: it has no left letter to extend by
        ("bext", "00", 2), ("bilateral_order", "00", 2), ("pext", "00", 2),
    ])
    def test_order_without_its_levels_above(self, query, w, room):
        index = LanguageIndex("0010", 3)
        args = (R, w) if query == "pext" else (w,)
        with pytest.raises(IndexRangeError, match=rf"needs {room} extra length level\(s\)"):
            getattr(index, query)(*args)

    @pytest.mark.parametrize("kind", ["lext", "rext", "bext"])
    def test_level_without_a_key_is_loud(self, kind):
        # "1" is dropped from level 1, but words one and two orders up extend it
        index = LanguageIndex("0110", 3)
        del index._levels[1]["1"]
        with pytest.raises(ConsistencyError, match="extends 1 word"):
            getattr(index, kind)("0")


class TestPext:
    def test_fibonacci_pext(self, fib_index):
        assert fib_index.pext(R, "010") == {"0"}
        assert fib_index.pext(R, "") == {"0"}

    def test_requires_fixed_word(self, fib_index):
        with pytest.raises(GroupError):
            fib_index.pext(R, "01")

    def test_requires_antimorphism(self, fib_index):
        with pytest.raises(GroupError):
            fib_index.pext(SymmetryMap.identity(BINARY), "010")


class TestComplexity:
    def test_fibonacci_is_sturmian(self):
        index = LanguageIndex(fibonacci_source().prefix(2000), 52, reversal_group(BINARY))
        c = index.complexities()
        for n in range(51):
            assert c[n] == n + 1
        table = index.complexity()
        assert all(d == 1 for d in table.delta_c[1:])

    def test_extension_count_identity(self, tm_index):
        # sum over length-n factors of (#Lext - 1) and (#Rext - 1) both give dC(n)
        c = tm_index.complexities()
        for n in range(1, 12):
            lsum = sum(len(tm_index.lext(w)) - 1 for w in tm_index.factors(n))
            rsum = sum(len(tm_index.rext(w)) - 1 for w in tm_index.factors(n))
            assert lsum == rsum == c[n + 1] - c[n]

    def test_second_difference_is_bilateral_sum(self, tm_index):
        c = tm_index.complexities()
        for n in range(1, 11):
            bsum = sum(tm_index.bilateral_order(w) for w in tm_index.factors(n))
            assert bsum == (c[n + 2] - c[n + 1]) - (c[n + 1] - c[n])

    def test_palindromic_complexity_values(self, fib_index, t33_index, i2_3):
        assert fib_index.palindromic_complexity(R)[1] == 2
        for theta in i2_3.involutive_antimorphisms:
            assert t33_index.palindromic_complexity(theta)[:4] == [1, 1, 3, 1]

    def test_palindromic_extension_identity(self, tm_index, i2_2):
        for theta in i2_2.involutive_antimorphisms:
            p = tm_index.palindromic_complexity(theta)
            for n in range(12):
                total = sum(len(tm_index.pext(theta, w))
                            for w in tm_index.theta_palindromes(theta, n))
                assert p[n + 2] == total

    def test_reversal_closed_bound(self, tm_index):
        # for reversal-closed languages: dC(n) + 2 >= P(n) + P(n+1)
        c = tm_index.complexities()
        p = tm_index.palindromic_complexity(R)
        for n in range(13):
            assert c[n + 1] - c[n] + 2 >= p[n] + p[n + 1]

    def test_csv_shape(self, fib_index):
        csv = fib_index.complexity().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "n,C,dC,d2C,P[a:01]"
        assert lines[1] == "0,1,1,0,1"
        assert len(lines) == fib_index.n_max  # header + rows 0..n_max-2


class TestStability:
    def test_stable_sources(self):
        assert stability_check(thue_morse_source(), 500, 12) is True
        assert stability_check(fibonacci_source(), 500, 12) is True

    def test_unstable_when_too_short(self):
        assert stability_check(generalized_thue_morse(3, 3), 30, 20) is False

    def test_literal_unknown(self):
        from symrich import LiteralSource

        src = LiteralSource(BINARY, "0110100110010110")
        assert stability_check(src, 10, 4) is None
