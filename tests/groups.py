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
