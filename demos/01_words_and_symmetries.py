"""Alphabets, word sources, and symmetry groups.

Run:  python demos/01_words_and_symmetries.py
"""

from symrich import Alphabet, DigitSumSource, FixedPointSource, SymmetryGroup, SymmetryMap, dihedral_group
from symrich.presets import octa_group, octa_source

# -- prefix generators --------------------------------------------------------------

binary = Alphabet.from_string("01")

fib = FixedPointSource(binary, {"0": "01", "1": "0"}, "0")
print("fixed point of 0->01, 1->0     :", fib.prefix(40))

tm = DigitSumSource(2, 2)
print("binary digit-sum word          :", tm.prefix(40))

t33 = DigitSumSource(3, 3)
print("base-3 digit-sum word          :", t33.prefix(40))

# the digit-sum words are also fixed points of block substitutions; the two
# constructions agree letter for letter and cross-check each other
from symrich.presets import digit_sum_morphism

block = FixedPointSource(t33.alphabet, digit_sum_morphism(3, 3), "0")
assert block.prefix(500) == t33.prefix(500)
print("block substitution agrees with the digit-sum definition on 500 letters")

# -- symmetry maps ------------------------------------------------------------------

R = SymmetryMap.reversal(binary)          # plain reversal
E = SymmetryMap(binary, ("1", "0"), True)  # exchange-and-reverse
print("\nR(0110) =", R.apply("0110"), "   E(011) =", E.apply("011"))

# composing two antimorphisms yields a morphism; orientation bits add mod 2
ER = E.compose(R)
print("E after R is a morphism:", not ER.antimorphic, "; ER(0110) =", ER.apply("0110"))

# -- groups -------------------------------------------------------------------------

G = SymmetryGroup.close([R, E])
print("\nclosure of {R, E}:", [e.name for e in G.elements])
print("involutive antimorphisms:", [e.name for e in G.involutive_antimorphisms])
print("orbit of 011:", G.equivalence_class("011"))

D3 = dihedral_group(3)
print("\ndihedral group on 3 letters:", [e.name for e in D3.elements])
print("orbit of a single letter:", D3.equivalence_class("0"))

octa = octa_group()
print("\n8-letter case study group:", octa.describe())
print("its word starts:", octa_source().prefix(40))
