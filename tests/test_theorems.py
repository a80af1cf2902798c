"""Verdicts fixed by theorems.

Each case is a word and a group whose richness a published theorem decides,
and the verdict of :func:`symrich.verify` must be the one the theorem
forces.  A rich word is ``rich-up-to-nmax`` on every prefix and order; a word
with a factor that breaks richness is ``refuted`` once the prefix and the
order hold that factor.  A case that disagrees with its theorem is a defect
of the program, never of the table.  One case, the Rote word under the
order-4 group, cites no theorem: it pins an observed verdict as a regression.
The defect-sum identity is checked on random periodic words.
"""

from itertools import accumulate, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symrich import (
    Alphabet,
    FixedPointSource,
    LiteralSource,
    PeriodicSource,
    defect_sum_check,
    dihedral_group,
    verify,
)
from symrich.presets import (
    BINARY,
    binary_full_group,
    fibonacci_source,
    generalized_thue_morse,
    reversal_group,
    thue_morse_source,
)
from symrich.verify import REFUTED, RICH


def rote_source(length: int) -> LiteralSource:
    """The complement-symmetric Rote word whose letter n is the sum mod 2 of the
    first n letters of the Fibonacci word (its sums of neighbours mod 2 are the
    Fibonacci word)."""
    fib = fibonacci_source().prefix(length - 1)
    return LiteralSource(BINARY, "".join(str(s % 2) for s in accumulate(map(int, fib), initial=0)))


#: Starosta, Kybernetika 48 (2012): the generalized Thue–Morse word t_{b,m} is
#: rich for the dihedral group I_2(m) of its digit-sum symmetries, for all
#: b, m >= 2.  t_{4,4} needs its prefix doubled once before its factors of
#: order 22 are stable.
@pytest.mark.parametrize("b, m", list(product((2, 3, 4), repeat=2)), ids=str)
def test_generalized_thue_morse_is_dihedral_rich(b, m):
    report = verify(dihedral_group(m), generalized_thue_morse(b, m), 4000, 20)
    assert report.overall == RICH, report.to_text()
    assert report.length == (8000 if (b, m) == (4, 4) else 4000)


@pytest.mark.parametrize("source, overall", [
    # Droubay, Justin & Pirillo, TCS 255 (2001): every episturmian word, the
    # Fibonacci word among them, is rich under reversal
    pytest.param(fibonacci_source(), RICH, id="fibonacci"),
    # Blondin Massé, Brlek, Labbé & Vuillon, TCS 412 (2011): every
    # complement-symmetric Rote sequence is rich under reversal
    pytest.param(rote_source(8000), RICH, id="rote"),
    # Brlek, Hamel, Nivat & Reutenauer, IJFCS 15 (2004): the Thue–Morse word
    # has infinite palindromic defect, so it is not rich under reversal
    pytest.param(thue_morse_source(), REFUTED, id="thue-morse"),
])
def test_binary_words_under_reversal(source, overall):
    report = verify(reversal_group(BINARY), source, 4000, 20)
    assert report.overall == overall, report.to_text()


def test_tribonacci_is_rich_under_reversal():
    # Droubay, Justin & Pirillo, TCS 255 (2001): the tribonacci word, the
    # fixed point of 0 -> 01, 1 -> 02, 2 -> 0, is an Arnoux-Rauzy word, so
    # episturmian, so rich under reversal
    ternary = Alphabet.from_string("012")
    source = FixedPointSource(ternary, {"0": "01", "1": "02", "2": "0"}, "0")
    report = verify(reversal_group(ternary), source, 4000, 20)
    assert report.overall == RICH, report.to_text()


def test_rote_word_under_the_order_4_group():
    # observed, not a theorem: the complement-symmetric Rote word, rich under
    # reversal, is on this prefix also rich under the order-4 group that adds
    # the exchange antimorphism 0 <-> 1; pinned as a regression
    report = verify(binary_full_group(), rote_source(8000), 4000, 20)
    assert report.overall == RICH, report.to_text()


binary_palindromes = st.builds(lambda half, middle: half + middle + half[::-1],
                               st.text("01", max_size=6), st.sampled_from(["", "0", "1"]))


#: Brlek & Reutenauer, TCS 412 (2011): a periodic word whose language is
#: closed under reversal has 2 D = sum of T(n) = dC(n) + 2 - P(n) - P(n + 1)
#: over n >= 0.  Its period is a product of two palindromes (a word and its
#: reversal are conjugate); at n_max = 3p + 3 the defect of a prefix of
#: 40p + 40 letters has stabilized and T has vanished.
@given(binary_palindromes, binary_palindromes)
@settings(max_examples=200, deadline=None)
def test_defect_sum_on_periodic_words_closed_under_reversal(first, second):
    period = first + second
    assume(period)
    p = len(period)
    check = defect_sum_check(PeriodicSource(BINARY, period), 40 * p + 40, 3 * p + 3)
    assert check.matching is True, (period, check)
