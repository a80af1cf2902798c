"""The table of the mutation gate (``tests/test_mutation_gate.py``).

Each row names a file under ``src/symrich``, an exact snippet that occurs
there once, the mutant that replaces it, and the id of the test that must
fail on the mutated tree.  A refactor that changes a snippet fails the gate
until its row is updated; a row is never dropped to make the gate pass.

The tie rule of ``_lacuna_profile`` (on equal lengths the earlier tree's node
is kept) has no killable mutant: two trees' nodes of one length at one prefix
are one string, born at one position, whose images are the same strings, so
taking the later node changes nothing.  Its row reverses the comparison
instead, which keeps the shorter suffix.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "what file snippet mutant test")

MUTANTS = (
    Mutant("antimorphism reversal in LanguageIndex.column", "index.py",
           "images.reverse()", "images",
           "tests/test_properties.py::TestOrbitColumns::test_columns_match_per_factor_calls"),
    Mutant("min -> max in LanguageIndex.representatives", "index.py",
           "tuple(map(min, zip(", "tuple(map(max, zip(",
           "tests/test_properties.py::TestOrbitColumns::test_columns_match_per_factor_calls"),
    Mutant("max S <-> min S in the strip of Lemma 2", "verify.py",
           "u = v[max(shifts[v[:n1]]):len(v) - 1 + min(shifts[v[-n1:]])]",
           "u = v[min(shifts[v[:n1]]):len(v) - 1 + max(shifts[v[-n1:]])]",
           "tests/test_verify.py::TestCrwOneSided::test_extension_word_with_both_shifts"),
    Mutant("Lemma 2 keeps the strips of n letters of doubly reached members", "verify.py",
           "if len(u) > n:", "if len(u) >= n:",
           "tests/test_verify.py::TestCrwBelowTop::test_doubly_reached_member[fib-reversal]"),
    Mutant("Lemma 1's strip keeps one outer letter, in the suspects and in the deferred build",
           "verify.py", "{v[1:-1] for v in words}", "{v[1:] for v in words}",
           "tests/test_properties.py::TestCrwDeferredReads::test_preset_subgroups[tm]"),
    Mutant("derived return words drop the boundary words", "verify.py",
           "returns.update(boundary)", "returns.update(boundary[:0])",
           "tests/test_verify.py::TestCrwOneSided::test_boundary_word_of_one_sided_class"
           "[11011001001101-11011]"),
    Mutant("shift 1 for the extension word m·c of Lemma 2", "verify.py",
           "e, s0 = rep + c, 0", "e, s0 = rep + c, 1",
           "tests/test_verify.py::TestCrwBelowTop::test_doubly_reached_member[t33-dihedral3]"),
    Mutant("the return word from 0 of a derived class skips an occurrence at 1", "verify.py",
           "(j := text.find(m, 1))", "(j := text.find(m, 2))",
           "tests/test_verify.py::TestCrwWalk::test_first_occurrence_over_all_members"),
    Mutant("the return word to the end of a derived class starts at the last occurrence", "verify.py",
           "text.rfind(m, 0, size - 1)", "text.rfind(m, 0, size)",
           "tests/test_verify.py::TestCrwOneSided::test_boundary_word_of_one_sided_class"
           "[0110100110010110100-0010110100]"),
    Mutant("the walk of Lemma 3 without its budget", "verify.py",
           "if budget < 0 or len(s) == index.n_max:", "if len(s) == index.n_max:",
           "tests/test_verify.py::TestCrwWalk::test_walk_over_its_budget"),
    Mutant("the prefix join keeps the later entry's start", "index.py",
           "level[w] = (level[w][0] if w in level else a, b)", "level[w] = (a, b)",
           "tests/test_properties.py::TestWindowRuns::test_pinned_cases[periodic]"),
    Mutant("the prefix rule puts the text's tail after the level above", "index.py",
           "insort(items, (tail, spans[tail]))", "items.append((tail, spans[tail]))",
           "tests/test_properties.py::TestWindowRuns::test_pinned_cases[n_max-length]"),
    Mutant("the distinct-window build lists each window's positions descending", "index.py",
           "chain.from_iterable(map(runs.__getitem__, windows))",
           "chain.from_iterable(runs[w][::-1] for w in windows)",
           "tests/test_properties.py::TestWindowRuns::test_pinned_cases[one-letter]"),
    Mutant("bext reads the right letters of w, not of a·w", "index.py",
           "for b in self.rext(a + w)", "for b in self.rext(w)",
           "tests/test_index.py::TestExtensions::test_bilateral_order_fibonacci"),
    Mutant("pext reads the right letters of w, not of a·w", "index.py",
           "theta.image_of(a) in self.rext(a + w)", "theta.image_of(a) in self.rext(w)",
           "tests/test_index.py::TestPext::test_fibonacci_pext"),
    Mutant("closure below the top order keeps only the prefixes of the additions above", "index.py",
           "for v in (u[:-1], u[1:])", "for v in (u[:-1],)",
           "tests/test_index.py::TestBuild::test_closure_fails_only_above_an_order"),
    Mutant("factors(n) ignores the closure additions not yet merged into level n", "index.py",
           "chain(self._levels[n], self._unmerged.get(n, ()))", "chain(self._levels[n])",
           "tests/test_index.py::TestBuild::test_closure_fails_only_above_an_order"),
    Mutant("the per-tree lps merge of _lacuna_profile keeps the shorter suffix", "palindromes.py",
           "b if length[b] >= length[e] else e", "b if length[b] <= length[e] else e",
           "tests/test_properties.py::TestLpsDifferential::test_profile_lps_column"),
    Mutant("the coset member loop of _palindrome_scan", "palindromes.py",
           "for j in members:", "for j in members[:0]:",
           "tests/test_properties.py::TestLpsRegressions::test_non_involutive_extension_needs_both_tests"),
    Mutant("the own-coset write of _palindrome_scan", "palindromes.py",
           "for j in own:", "for j in own[:1]:",
           "tests/test_properties.py::TestImageLinks::test_row_entries_are_orbit_images"),
    Mutant("the start offset of _stable_under_doubling", "index.py",
           "start = len(short) - n + 1", "start = len(short) - n + 2",
           "tests/test_properties.py::TestIndexDifferential::test_stability_outcomes_and_edges"),
    Mutant("_check_dual skips the first antimorphism's own bit", "palindromes.py",
           "if theta in group)", "if theta in group and t)",
           "tests/test_palindromes.py::TestDefect::test_fast_profile_equals_dual"),
    Mutant("the tree check takes an unjoined edge for a cycle", "graphs.py",
           "if path is not None:", "if path is None:",
           "tests/test_graphs.py::TestTreeCheckWitness::test_tree_check_against_oracle"),
    Mutant("the complexity verdict ignores its failures", "verify.py",
           '("complexity", [(r.n, r) for r in identity if r.n in checked and not r.equal],',
           '("complexity", [],',
           "tests/test_verify.py::TestVerify::test_refuted_run"),
    Mutant("the table of characterizations skips the entries at the threshold", "verify.py",
           "if at >= threshold), None)", "if at > threshold), None)",
           "tests/test_verify.py::TestThresholds::test_pinned_verdicts[per0011-exchange]"),
    Mutant("repro_octa wants two palindromic extensions", "repro.py",
           "r.pext_sizes == (1,)", "r.pext_sizes == (2,)",
           "tests/test_cli.py::TestRepro::test_ex8_scaled_down"),
    Mutant("repro_hexa searches the transported images in the analysed text", "repro.py",
           "hexa_text(2 * len(octa_text) + 4))", "text)",
           "tests/test_verify.py::test_repro_hexa_transport_on_a_short_prefix"),
    Mutant("an unquoted YAML word is read through str()", "cli.py",
           "if not isinstance(value, str):", "if False:",
           "tests/test_cli.py::TestExitCodes::test_unquoted_word_field"),
)
