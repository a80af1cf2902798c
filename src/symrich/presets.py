"""Bundled words and symmetry groups used by the reproduction presets.

Two families of words appear throughout the test corpus: classical morphic
fixed points (Fibonacci, digit-sum words) with dihedral symmetries, and a
pair of case studies with symmetry group Z2 x Z2 x Z2: an 8-letter morphic
fixed point ("octa") and its 6-letter morphic image ("hexa").
"""

from __future__ import annotations

from .symmetry import SymmetryGroup, SymmetryMap, dihedral_group
from .symmetry import reversal_group  # noqa: F401  (re-exported beside the bundled groups)
from .words import Alphabet, DigitSumSource, FixedPointSource, apply_morphism

# -- binary / dihedral classics ---------------------------------------------------

BINARY = Alphabet.from_string("01")


def fibonacci_source() -> FixedPointSource:
    return FixedPointSource(BINARY, {"0": "01", "1": "0"}, "0")


def generalized_thue_morse(base: int, modulus: int) -> DigitSumSource:
    """Digit-sum word: letter n is the base-b digit sum of n, mod m."""
    return DigitSumSource(base, modulus)


def thue_morse_source() -> DigitSumSource:
    return generalized_thue_morse(2, 2)


def digit_sum_morphism(base: int, modulus: int) -> dict[str, str]:
    """The substitution whose fixed point equals the digit-sum word.

    Letter l maps to the block l, l+1, ..., l+b-1 (mod m).
    """
    alphabet = Alphabet.from_size(modulus)
    return {
        alphabet.glyphs[l]: "".join(alphabet.glyphs[(l + j) % modulus] for j in range(base))
        for l in range(modulus)
    }


def exchange_group() -> SymmetryGroup:
    """{identity, letter-exchange antimorphism} on the binary alphabet."""
    return SymmetryGroup.close([SymmetryMap(BINARY, ("1", "0"), True)])


def binary_full_group() -> SymmetryGroup:
    """Order-4 group {Id, R, E, ER} on the binary alphabet (same as dihedral(2))."""
    return dihedral_group(2)


def cyclic4_antimorphism_group() -> SymmetryGroup:
    """Order-4 cyclic group generated by reversal composed with a 4-cycle.

    Its antimorphisms have order 4, so it has no involutive antimorphism and
    is not generated by involutive antimorphisms; richness analyses must
    refuse to certify any word against it.
    """
    alphabet = Alphabet.from_string("0123")
    return SymmetryGroup.close([SymmetryMap(alphabet, ("1", "2", "3", "0"), True)])


# -- octa: 8-letter fixed point with Z2^3 symmetries -------------------------------

OCTA_ALPHABET = Alphabet.from_string("01234567")

OCTA_RULES = {
    "0": "01", "1": "2", "2": "65", "3": "4",
    "4": "23", "5": "6", "6": "47", "7": "0",
}

#: last-letter successor map used by the bispecial recursion of the octa word
OCTA_PI = {"0": "2", "4": "0", "2": "4", "6": "6"}

_OCTA_THETA_TABLES = (
    {"0": "2", "1": "1", "2": "0", "3": "3", "4": "6", "5": "5", "6": "4", "7": "7"},
    {"0": "4", "1": "5", "2": "6", "3": "7", "4": "0", "5": "1", "6": "2", "7": "3"},
    {"0": "0", "1": "3", "2": "2", "3": "1", "4": "4", "5": "7", "6": "6", "7": "5"},
)


def octa_theta(i: int) -> SymmetryMap:
    """Generating antimorphism i (i in 0..2) of the octa group."""
    return SymmetryMap.from_mapping(OCTA_ALPHABET, _OCTA_THETA_TABLES[i % 3], antimorphic=True)


def octa_source() -> FixedPointSource:
    return FixedPointSource(OCTA_ALPHABET, OCTA_RULES, "0")


def octa_group() -> SymmetryGroup:
    return SymmetryGroup.close([octa_theta(0), octa_theta(1), octa_theta(2)])


# -- hexa: 6-letter morphic image of the octa word ---------------------------------

HEXA_ALPHABET = Alphabet.from_string("012345")

#: letter-to-2-block substitution mapping the octa word onto the hexa word
HEXA_MU = {
    "0": "15", "1": "04", "2": "12", "3": "03",
    "4": "04", "5": "12", "6": "03", "7": "15",
}

#: letter-to-3-block companion substitution used by the palindrome transport
HEXA_ETA = {
    "0": "041", "1": "120", "2": "031", "3": "150",
    "4": "150", "5": "041", "6": "120", "7": "031",
}

_HEXA_PSI_TABLES = (
    {"0": "0", "1": "1", "2": "4", "3": "5", "4": "2", "5": "3"},
    {"0": "1", "1": "0", "2": "2", "3": "3", "4": "4", "5": "5"},
    {"0": "0", "1": "1", "2": "3", "3": "2", "4": "5", "5": "4"},
)


def hexa_psi(i: int) -> SymmetryMap:
    """Generating antimorphism i (i in 0..2) of the hexa group."""
    return SymmetryMap.from_mapping(HEXA_ALPHABET, _HEXA_PSI_TABLES[i % 3], antimorphic=True)


def hexa_group() -> SymmetryGroup:
    return SymmetryGroup.close([hexa_psi(0), hexa_psi(1), hexa_psi(2)])


def hexa_text(length: int) -> str:
    """Prefix of the hexa word (the 2-block image of the octa word)."""
    octa = octa_source().prefix(-(-length // 2))
    return apply_morphism(HEXA_MU, octa)[:length]
