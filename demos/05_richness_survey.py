"""Cross-verified richness verdicts across the bundled corpus.

Every verdict is checked through six characterizations at once (graph
structure, return words, palindromic suffixes, defect, complexity balance,
bilateral orders); the report refuses to let them disagree silently.

Run:  python demos/05_richness_survey.py     (about half a minute)
"""

from symrich import defect_sum_check, verify
from symrich.presets import (
    BINARY,
    binary_full_group,
    exchange_group,
    fibonacci_source,
    generalized_thue_morse,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import dihedral_group
from symrich.repro import repro_hexa, repro_octa
from symrich.words import PeriodicSource

runs = [
    ("binary digit-sum word / order-4 group", binary_full_group(), thue_morse_source(), 30),
    ("binary digit-sum word / reversal only", reversal_group(BINARY), thue_morse_source(), 30),
    ("Fibonacci word / reversal", reversal_group(BINARY), fibonacci_source(), 50),
    ("base-3 digit-sum word / dihedral", dihedral_group(3), generalized_thue_morse(3, 3), 30),
    # (0011) repeated is closed under the exchange group but misses one
    # palindrome class early on; the verdict is an almost-rich candidate
    # with the smallest threshold from which every check passes
    ("(0011) periodic / exchange group", exchange_group(),
     PeriodicSource(BINARY, "0011"), 10),
]
for title, group, source, n_max in runs:
    report = verify(group, source, 2000, n_max, word_id=title, group_id=f"order{group.order}")
    verdictline = " ".join(f"{k}={'ok' if v else 'X'}" for k, v in sorted(report.verdicts.items()))
    print(f"{title:45s} -> {report.overall:22s} [{verdictline}]")
    if report.witnesses:
        first = sorted(report.witnesses.items())[0]
        print(f"{'':45s}    first witness: {first[0]}: {first[1]}")

# classical defect against the complexity-sum telescoping
print()
for title, source in (("Fibonacci", fibonacci_source()), ("binary digit-sum", thue_morse_source())):
    out = defect_sum_check(source, 1500, 30)
    print(f"{title}: 2*defect = {2 * out.defect}, partial sum = {out.partial_sum}, "
          f"matching = {out.matching}")

# the two case studies over order-8 groups (scaled-down parameters)
print()
octa = repro_octa(length=1200, n_max=20)
print("octa case study :", octa.richness.overall, "| structural checks ok:", all(c.ok for c in octa.checks))
hexa = repro_hexa(length=1200, n_max=20)
print("hexa case study :", hexa.richness.overall, "| structural checks ok:", all(c.ok for c in hexa.checks))
rich_subgroups = [r for r in hexa.subgroup_results if r.proper and r.overall == "rich-up-to-nmax"]
print("rich proper subgroups:", len(rich_subgroups),
      "| half-order identity:", all(r.identity_ok for r in rich_subgroups))
