import importlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles import iterated_fixed_point
from symrich import (
    Alphabet,
    AlphabetError,
    DigitSumSource,
    FixedPointSource,
    LiteralSource,
    PeriodicSource,
    SourceError,
    apply_morphism,
)
from symrich.presets import digit_sum_morphism, fibonacci_source


def digit_sum(n, base):
    """The sum of the base-``base`` digits of ``n``."""
    total = 0
    while n:
        n, r = divmod(n, base)
        total += r
    return total


@st.composite
def fixed_point_case_st(draw):
    """A non-erasing morphism on 1..4 glyphs, prolongable on its seed, and a length."""
    glyphs = "0123"[:draw(st.integers(1, 4))]
    image = st.text(glyphs, min_size=1, max_size=4)
    rules = {g: draw(image) for g in glyphs}
    seed = draw(st.sampled_from(glyphs))
    rules[seed] = seed + draw(image)
    return Alphabet.from_string(glyphs), rules, seed, draw(st.integers(0, 400))


def brute_digit_sum_word(base, modulus, length):
    """Independent oracle: one digit sum per letter, straight from the definition."""
    return "".join(str(digit_sum(n, base) % modulus) for n in range(length))


class TestAlphabet:
    def test_rejects_duplicate_glyphs(self):
        with pytest.raises(AlphabetError):
            Alphabet(("0", "0"))

    def test_rejects_multichar_glyph(self):
        with pytest.raises(AlphabetError):
            Alphabet(("ab",))

    def test_check_word(self):
        a = Alphabet.from_string("01")
        assert a.check_word("0101") == "0101"
        with pytest.raises(AlphabetError):
            a.check_word("012")

    def test_foreign_glyph_message_is_short(self):
        word = "01" * 32000 + "a"
        with pytest.raises(AlphabetError) as info:
            Alphabet.from_string("01").check_word(word)
        message = str(info.value)
        assert len(message) < 200
        assert "'a'" in message and "position 64000" in message

    def test_from_size(self):
        assert str(Alphabet.from_size(12)) == "0123456789ab"


class TestFixedPoint:
    def test_fibonacci_prefix(self):
        assert fibonacci_source().prefix(16) == "0100101001001010"

    def test_fibonacci_long_prefix(self):
        assert fibonacci_source().prefix(40) == "0100101001001010010100100101001001010010"

    def test_prefix_monotone(self):
        src = fibonacci_source()
        long = src.prefix(200)
        for k in (0, 1, 7, 50, 199):
            assert long.startswith(src.prefix(k))

    def test_image_of_prefix_is_prefix(self):
        src = fibonacci_source()
        p = src.prefix(100)
        image = apply_morphism(src.rules, p)
        assert image.startswith(p) or src.prefix(len(image)).startswith(p)
        assert src.prefix(len(image)) == image

    @given(case=fixed_point_case_st())
    @settings(max_examples=300, deadline=None)
    def test_prefix_matches_whole_word_iteration(self, case):
        alphabet, rules, seed, length = case
        assert FixedPointSource(alphabet, rules, seed).prefix(length) == iterated_fixed_point(
            rules, seed, length
        )

    def test_linear_work_on_a_slowly_growing_fixed_point(self, monkeypatch):
        # 0 -> 01, 1 -> 1 adds one letter per application of the morphism, so
        # applying it to the whole prefix would read about L^2 / 2 letters
        words = importlib.import_module("symrich.words")
        real, length, read = words.apply_morphism, 200_000, [0]

        def spy(rules, word):
            read[0] += len(word)
            assert read[0] <= 2 * length, "more than 2L letters through apply_morphism"
            return real(rules, word)

        monkeypatch.setattr(words, "apply_morphism", spy)
        source = FixedPointSource(Alphabet.from_string("01"), {"0": "01", "1": "1"}, "0")
        assert source.prefix(length) == "0" + "1" * (length - 1)

    def test_rejects_non_prolongable_seed(self):
        a = Alphabet.from_string("01")
        with pytest.raises(SourceError):
            FixedPointSource(a, {"0": "10", "1": "0"}, "0")

    def test_rejects_erasing_rule(self):
        a = Alphabet.from_string("01")
        with pytest.raises(SourceError):
            FixedPointSource(a, {"0": "01", "1": ""}, "0")

    def test_rejects_missing_rule(self):
        a = Alphabet.from_string("01")
        with pytest.raises(SourceError):
            FixedPointSource(a, {"0": "01"}, "0")


class TestDigitSum:
    def test_thue_morse_prefix(self):
        assert DigitSumSource(2, 2).prefix(16) == "0110100110010110"

    def test_thue_morse_long_prefix(self):
        assert DigitSumSource(2, 2).prefix(40) == "0110100110010110100101100110100110010110"

    def test_base3_mod3_prefix(self):
        assert DigitSumSource(3, 3).prefix(9) == brute_digit_sum_word(3, 3, 9) == "012120201"

    def test_digit_sum_helper(self):
        assert digit_sum(0, 2) == 0
        assert digit_sum(22, 3) == 4  # 211 in base 3

    @pytest.mark.parametrize("base,modulus", [(2, 1), (2, 2), (3, 3), (4, 3), (5, 2)])
    def test_block_prefix_matches_digit_sums(self, base, modulus):
        # lengths around the block sizes base^k, where the block substitution turns over
        source = DigitSumSource(base, modulus)
        expected = brute_digit_sum_word(base, modulus, 1001)
        for length in range(0, 130):
            assert source.prefix(length) == expected[:length]
        for k in range(2, 5):
            for length in (base**k - 1, base**k, base**k + 1, 1001):
                assert source.prefix(length) == expected[:length]

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_huge_base(self, modulus):
        # below the base, s(n) = n; one block of 200 copies, with m shift tables
        expected = brute_digit_sum_word(10**20, modulus, 200)
        assert expected == "".join(str(n % modulus) for n in range(200))
        assert DigitSumSource(10**20, modulus).prefix(200) == expected

    @pytest.mark.parametrize("base,modulus", [(2, 2), (3, 3), (2, 3), (4, 2), (5, 4)])
    def test_matches_substitution_fixed_point(self, base, modulus):
        source = DigitSumSource(base, modulus)
        morphic = FixedPointSource(source.alphabet, digit_sum_morphism(base, modulus), "0")
        assert source.prefix(800) == morphic.prefix(800)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SourceError):
            DigitSumSource(1, 2)
        with pytest.raises(SourceError):
            DigitSumSource(2, 0)


class TestPeriodicAndLiteral:
    def test_periodic(self):
        src = PeriodicSource(Alphabet.from_string("01"), "011")
        assert src.prefix(8) == "01101101"
        assert src.prefix(0) == ""

    def test_literal_bounds(self):
        src = LiteralSource(Alphabet.from_string("01"), "0110")
        assert src.prefix(3) == "011"
        assert src.max_prefix() == 4
        with pytest.raises(SourceError):
            src.prefix(5)

    def test_negative_length_rejected(self):
        with pytest.raises(SourceError):
            PeriodicSource(Alphabet.from_string("0"), "0").prefix(-1)
