"""Symmetry groups that only the tests use."""

from symrich.symmetry import SymmetryGroup, SymmetryMap
from symrich.words import Alphabet


def cyclic4_antimorphism_group() -> SymmetryGroup:
    """Order-4 cyclic group generated by reversal composed with a 4-cycle.

    Its antimorphisms have order 4, so it has no involutive antimorphism and
    is not generated by involutive antimorphisms; richness analyses must
    refuse to certify any word against it.
    """
    alphabet = Alphabet.from_string("0123")
    return SymmetryGroup.close([SymmetryMap(alphabet, ("1", "2", "3", "0"), True)])


def cyclic4_reversal_group() -> SymmetryGroup:
    """Order-8 group generated by reversal and by reversal composed with a 4-cycle.

    Its proper subgroup generated by the second generator has two
    antimorphisms, neither of them an involution, so a subgroup's share of
    work done under the whole group must handle non-involutive ones.
    """
    alphabet = Alphabet.from_string("0123")
    return SymmetryGroup.close([SymmetryMap(alphabet, ("1", "2", "3", "0"), True),
                                SymmetryMap.reversal(alphabet)])


def two_swaps_reversal_group() -> SymmetryGroup:
    """Order-8 group generated by reversal and the morphisms swapping 0 with 1
    and 2 with 3.

    Its four antimorphisms, in canonical order, are reversal composed with
    the identity, the 2-3 swap, the 0-1 swap and both swaps.  On a word over
    2 and 3 the first and the third agree while every two neighbours differ,
    so a distinguishing test that compares neighbouring antimorphisms only
    misses the coincidence.
    """
    alphabet = Alphabet.from_string("0123")
    return SymmetryGroup.close([SymmetryMap.reversal(alphabet),
                                SymmetryMap(alphabet, ("1", "0", "2", "3"), False),
                                SymmetryMap(alphabet, ("0", "1", "3", "2"), False)])
