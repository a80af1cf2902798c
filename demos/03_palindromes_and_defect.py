"""Generalized palindromes, return words, and the defect profile.

Run:  python demos/03_palindromes_and_defect.py
"""

from symrich import LanguageIndex, g_defect, g_lps, prefix_table_csv
from symrich.presets import binary_full_group, thue_morse_source
from symrich.verify import complete_return_words

group = binary_full_group()
p = "01101001100"  # an 11-letter prefix of the binary digit-sum word

# a word is a generalized palindrome when SOME antimorphism of the group fixes it
for w in ("001100", "01", "011"):
    print(f"{w}: fixers = {[t.name for t in group.antimorphic_fixers(w)]}")

# occurrences are counted up to the group orbit; the complete return words of
# the orbit are the stretches between consecutive orbit occurrences
orbit = group.equivalence_class("011")
index = LanguageIndex(p, 3, group)
print("\norbit of 011:", orbit)
print("orbit occurrences in", p, ":", sorted(q for w in orbit for q in index.occurrences(w)))
print("complete return words:", list(complete_return_words(group, p, "011")))
print("longest palindromic suffix of", p, ":", g_lps(group, p))

# the defect counts positions whose letter and longest palindromic suffix both
# reoccur; it equals |w| + 1 - palindromic classes - unfixable letter classes
profile = g_defect(group, p)
print("\ndefect profile:", profile.defect)
print("palindromic classes per prefix:", profile.pal_classes)

# per-prefix summary table for a longer stretch of the word
text = thue_morse_source().prefix(20)
print("\nper-prefix table (palindrome counts per antimorphism, suffix, defect):")
print(prefix_table_csv(group, text))
