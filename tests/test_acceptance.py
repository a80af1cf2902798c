"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s to see them interleaved).

Criterion 2 includes one deliberately strict sub-assertion about the bundled
order-3 graph of the base-3 digit-sum word that the underlying definitions
provably cannot satisfy; see that test's assertion message.
"""

import random
import time

import pytest

import symrich as sr
from oracles import classical_palindromes, theta_richness
from symrich import (
    LanguageIndex,
    defect_profile,
    g_defect,
    prefix_palindrome_table,
    verify,
)
from symrich.presets import (
    BINARY,
    binary_full_group,
    cyclic4_antimorphism_group,
    fibonacci_source,
    generalized_thue_morse,
    reversal_group,
    thue_morse_source,
)
from symrich.repro import repro_hexa, repro_octa
from symrich.symmetry import SymmetryGroup, SymmetryMap, dihedral_group
from symrich.verify import REFUTED, RICH
from symrich.words import Alphabet, PeriodicSource

TABLE_ROWS = [
    (0, 1, 1, ""), (1, 2, 1, "0"), (2, 3, 2, "01"), (3, 4, 2, "11"),
    (4, 5, 3, "0110"), (5, 6, 3, "101"), (6, 7, 4, "1010"), (7, 8, 5, "110100"),
    (8, 9, 6, "01101001"), (9, 9, 7, "0011"), (10, 9, 8, "100110"),
    (11, 10, 9, "001100"), (12, 11, 10, "10011001"), (13, 12, 10, "0100110010"),
    (14, 13, 11, "101001100101"), (15, 14, 12, "11010011001011"),
    (16, 15, 13, "0110100110010110"), (17, 16, 13, "101101"),
    (18, 17, 13, "01011010"), (19, 18, 13, "0010110100"),
]


def report_line(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def richness_runs():
    runs = {}
    runs["tm-full"] = timed(verify, binary_full_group(), thue_morse_source(), 2000, 30,
                            word_id="tm", group_id="order4-full")
    runs["tm-reversal"] = timed(verify, reversal_group(BINARY), thue_morse_source(), 2000, 30,
                                word_id="tm", group_id="reversal")
    runs["fib-reversal"] = timed(verify, reversal_group(BINARY), fibonacci_source(), 2000, 50,
                                 word_id="fib", group_id="reversal")
    runs["t33-dihedral"] = timed(verify, dihedral_group(3), generalized_thue_morse(3, 3),
                                 2000, 30, word_id="t33", group_id="dihedral3")
    return runs


@pytest.fixture(scope="module")
def octa_report():
    return repro_octa(2000, 30)


@pytest.fixture(scope="module")
def hexa_report():
    return repro_hexa(2000, 30)


class TestCriterion1:
    def test_prefix_palindrome_table(self):
        group = binary_full_group()
        (rows, elapsed) = timed(prefix_palindrome_table, group, thue_morse_source().prefix(19))
        got = [(r.n, r.theta_counts[0], r.theta_counts[1], r.g_lps) for r in rows]
        ok = got == TABLE_ROWS and elapsed < 1.0
        report_line("1 prefix palindrome table", ok)
        assert got == TABLE_ROWS
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"


class TestCriterion2:
    def test_figure_reproductions(self, tm_index, tm_index_r, fib_index, t33_index,
                                  i2_2, i2_3, id_r):
        # Fibonacci order 3, directed and undirected: one vertex, two loops
        directed = sr.directed_symmetry_graph(id_r, fib_index, 3)
        undirected = sr.undirected_symmetry_graph(id_r, fib_index, 3)
        assert directed.vertex_classes == (("010",),)
        assert sorted(e.label for e in directed.directed_edges) == ["010010", "01010"]
        assert {e.representative for e in undirected.loops()} == {"010010", "01010"}

        # Rauzy graph of the binary digit-sum word, order 3: 6 vertices, 10 edges
        rauzy = sr.rauzy_graph(tm_index, 3)
        assert len(rauzy.vertices) == 6 and len(rauzy.edges) == 10
        assert set(rauzy.vertices) == {"011", "110", "101", "010", "100", "001"}

        # order-4 group: 10 directed edges over the two classes
        full_directed = sr.directed_symmetry_graph(i2_2, tm_index, 3)
        assert len(full_directed.directed_edges) == 10
        assert {frozenset(c) for c in full_directed.vertex_classes} == {
            frozenset({"011", "110", "100", "001"}), frozenset({"101", "010"})}

        # undirected: one connecting class and three loop classes
        full_undirected = sr.undirected_symmetry_graph(i2_2, tm_index, 3)
        assert {frozenset(e.members) for e in full_undirected.non_loop_edges()} == {
            frozenset({"0100", "0010", "1011", "1101"})}
        assert {frozenset(e.members) for e in full_undirected.loops()} == {
            frozenset({"1010", "0101"}),
            frozenset({"1100", "0011"}),
            frozenset({"1001", "0110"}),
        }

        # reversal-only group: 4 vertices, 4 connecting edges, 2 loops, a cycle
        rev_undirected = sr.undirected_symmetry_graph(id_r, tm_index_r, 3)
        assert len(rev_undirected.vertex_classes) == 4
        assert len(rev_undirected.non_loop_edges()) == 4
        assert len(rev_undirected.loops()) == 2
        rev_verdict = sr.tls_verdict(id_r, tm_index_r, 3)
        assert not rev_verdict.satisfied and "cycle" in rev_verdict.tree_witness

        # base-3 digit-sum word: single vertex and the two documented loops
        t33_undirected = sr.undirected_symmetry_graph(i2_3, t33_index, 3)
        assert {frozenset(c) for c in t33_undirected.vertex_classes} == {
            frozenset({"012", "120", "201"})}
        loop_sets = {frozenset(e.members) for e in t33_undirected.loops()}
        assert frozenset({"0120", "1201", "2012"}) in loop_sets
        assert frozenset({"012120", "120201", "201012"}) in loop_sets

        report_line("2 figure reproductions", True)

    @pytest.mark.xfail(
        strict=True,
        reason="the order-3 loop set of the base-3 digit-sum word provably contains a "
               "third class [012201]; the two-loop expectation contradicts the edge "
               "definition and is kept as an expected failure, not weakened",
    )
    def test_t33_order3_loop_set_matches_two_loop_figure(self, t33_index, i2_3):
        """Strict form: the order-3 loop set should be exactly the two documented
        classes.  The edge definition provably also yields the class of 012201
        (a genuine factor, interior windows non-special), so this assertion
        cannot hold; it is kept as a strict expected failure rather than weakened."""
        graph = sr.undirected_symmetry_graph(i2_3, t33_index, 3)
        loop_sets = {frozenset(e.members) for e in graph.loops()}
        expected = {
            frozenset({"0120", "1201", "2012"}),
            frozenset({"012120", "120201", "201012"}),
        }
        ok = loop_sets == expected
        report_line("2 strict two-loop figure", ok)
        assert loop_sets == expected, (
            "the order-3 graph of the base-3 digit-sum word has a third loop class "
            f"{sorted(map(sorted, loop_sets - expected))}; it satisfies the edge "
            "definition (prefix/suffix special, interior windows 122/220 non-special) "
            "and its members are genuine factors, e.g. at position 15"
        )


class TestCriterion3:
    def test_verdicts_and_runtimes(self, richness_runs):
        rep, secs = richness_runs["tm-full"]
        ok = rep.overall == RICH and secs < 10.0
        rep2, secs2 = richness_runs["tm-reversal"]
        first_tls_failure = next(v.order for v in rep2.tls if not v.satisfied)
        ok &= rep2.overall == REFUTED and first_tls_failure == 3 and secs2 < 10.0
        rep3, secs3 = richness_runs["fib-reversal"]
        ok &= (rep3.overall == RICH and rep3.n_max == 50
               and all(d == 0 for d in rep3.profile.defect) and secs3 < 10.0)
        rep4, secs4 = richness_runs["t33-dihedral"]
        ok &= rep4.overall == RICH and secs4 < 10.0
        report_line("3 richness verdicts", ok)
        assert rep.overall == RICH and secs < 10.0
        assert rep2.overall == REFUTED and first_tls_failure == 3 and secs2 < 10.0
        assert rep3.overall == RICH and all(d == 0 for d in rep3.profile.defect)
        assert secs3 < 10.0
        assert rep4.overall == RICH and secs4 < 10.0


class TestCriterion4:
    def test_octa_case_study(self, octa_report):
        rep = octa_report
        by_name = {c.name: c for c in rep.checks}
        ok = (
            rep.richness.overall == RICH
            and rep.richness.n_max == 30
            and by_name["first complexity difference at 1"].ok
            and by_name["palindromic letters"].ok
            and by_name["palindromic length-2 classes"].ok
            and by_name["bispecial bilateral orders"].ok
            and by_name["bispecial image recursion"].ok
            and by_name["generator commutation identity"].ok
        )
        report_line("4 octa case study", ok)
        assert ok, rep.to_text()


class TestCriterion5:
    def test_hexa_case_study(self, hexa_report):
        rep = hexa_report
        by_name = {c.name: c for c in rep.checks}
        ok = rep.richness.overall == RICH and all(c.ok for c in rep.checks)
        rich_proper = [r for r in rep.subgroup_results if r.proper and r.overall == RICH]
        ok &= len(rich_proper) == 3
        ok &= all(r.order == 4 and r.identity_ok for r in rich_proper)
        ok &= all(value == 4 for r in rich_proper for _, value in r.identity_values)
        report_line("5 hexa case study and subgroups", ok)
        assert rep.richness.overall == RICH
        assert all(c.ok for c in rep.checks), rep.to_text()
        assert len(rich_proper) == 3
        for r in rich_proper:
            assert r.order == 4 and r.identity_ok
            assert all(value == 4 for _, value in r.identity_values)
        assert by_name["first complexity differences"].ok


def _fuzz_group_pool(rng):
    pool = []
    for m in (1, 2, 3, 4):
        full = dihedral_group(m)
        pool.append(full)
        pool += [s for s in full.subgroups() if s.has_antimorphism and s.order <= 8]
    for _ in range(12):
        k = rng.randint(2, 5)
        alphabet = Alphabet.from_size(k)
        generators = []
        for _ in range(rng.randint(1, 2)):
            glyphs = list(alphabet.glyphs)
            rng.shuffle(glyphs)
            images = {g: g for g in alphabet.glyphs}
            for i in range(rng.randint(0, k // 2)):
                a, b = glyphs[2 * i], glyphs[2 * i + 1]
                images[a], images[b] = b, a
            generators.append(SymmetryMap.from_mapping(alphabet, images, True))
        group = SymmetryGroup.close(generators)
        if group.order <= 8:
            pool.append(group)
    return pool


class TestCriterion6:
    def test_bulk_fuzz(self):
        rng = random.Random(20260810)
        pool = _fuzz_group_pool(rng)
        words_checked = 0
        for _ in range(1000):
            group = rng.choice(pool)
            glyphs = group.alphabet.glyphs
            word = "".join(rng.choice(glyphs) for _ in range(rng.randint(0, 40)))
            words_checked += 1

            profile = g_defect(group, word)  # dual computation; raises on mismatch
            assert profile.final == len(profile.lacunas)

            letter = rng.choice(glyphs)
            grown = defect_profile(group, word + letter).final
            assert profile.final <= grown <= profile.final + 1
            grown_left = defect_profile(group, letter + word).final
            assert profile.final <= grown_left <= profile.final + 1

            mu = rng.choice(group.elements)
            assert defect_profile(group, mu.apply(word)).final == profile.final

            assert len(classical_palindromes(word)) <= len(word) + 1
            if group.involutive_antimorphisms:
                theta = rng.choice(group.involutive_antimorphisms)
                out = theta_richness(theta, word)
                assert out.pal_count <= len(word) + 1 - out.gamma

        assert words_checked >= 1000
        report_line("6 property fuzz (part 1: defect and bounds)", True)

    def test_indexed_identities_fuzz(self):
        rng = random.Random(77)
        pool = _fuzz_group_pool(rng)
        for _ in range(60):
            group = rng.choice(pool)
            glyphs = group.alphabet.glyphs
            word = "".join(rng.choice(glyphs) for _ in range(rng.randint(4, 40)))
            n_max = min(6, len(word))
            index = LanguageIndex(word, n_max, group)
            c = index.complexities()
            for n in range(n_max - 1):
                assert sum(len(index.lext(w)) - 1 for w in index.factors(n)) == c[n + 1] - c[n]
            for n in range(n_max - 2):
                bsum = sum(index.bilateral_order(w) for w in index.factors(n))
                assert bsum == (c[n + 2] - c[n + 1]) - (c[n + 1] - c[n])
                for theta in group.involutive_antimorphisms:
                    p = index.palindromic_complexity(theta)
                    assert p[n + 2] == sum(len(index.pext(theta, w))
                                           for w in index.theta_palindromes(theta, n))
        report_line("6 property fuzz (part 2: extension identities)", True)

    def test_complexity_bound_fuzz(self):
        """dC(n) + #G >= palindromic sum at distinguishing n, on closed words."""
        rng = random.Random(4242)
        cases = []
        for base in (2, 3, 4):
            for modulus in (1, 2, 3, 4):
                full = dihedral_group(modulus)
                subs = [s for s in full.subgroups() if s.has_antimorphism]
                text = sr.DigitSumSource(base, modulus).prefix(700)
                cases += [(group, text) for group in subs]
        for _ in range(12):
            k = rng.randint(1, 4)
            alphabet = Alphabet.from_size(k)
            glyphs = list(alphabet.glyphs)
            rng.shuffle(glyphs)
            images = {g: g for g in alphabet.glyphs}
            for i in range(rng.randint(0, k // 2)):
                a, b = glyphs[2 * i], glyphs[2 * i + 1]
                images[a], images[b] = b, a
            theta = SymmetryMap.from_mapping(alphabet, images, True)
            q = "".join(rng.choice(alphabet.glyphs) for _ in range(rng.randint(1, 6)))
            period = q + theta.apply(q)
            cases.append((SymmetryGroup.close([theta]), period * (80 // len(period) + 2)))

        checked = 0
        for group, text in cases:
            index = LanguageIndex(text, 9, group)
            if index.closure_added:
                continue
            for record in sr.complexity_identity(group, index, range(8)):
                if record.distinguishing:
                    assert record.holds, (group.describe(), record)
                    checked += 1
        assert checked > 100
        report_line("6 property fuzz (part 3: complexity bound)", True)


class TestCriterion7:
    def test_cross_characterization_agreement(self, richness_runs, octa_report, hexa_report):
        reports = [run[0] for run in richness_runs.values()]
        reports.append(octa_report.richness)
        reports.append(hexa_report.richness)
        ok = all(r.agreement_ok for r in reports)
        ok &= all(sub.overall != "inconsistent" for sub in hexa_report.subgroup_results)
        report_line("7 cross-characterization agreement", ok)
        for r in reports:
            assert r.agreement_ok, (r.word_id, r.group_id, r.verdicts)
        for sub in hexa_report.subgroup_results:
            assert sub.overall != "inconsistent"


class TestCriterion8:
    def test_involutive_generation(self, richness_runs, octa_report, hexa_report):
        rich_reports = [run[0] for run in richness_runs.values() if run[0].overall == RICH]
        rich_reports += [octa_report.richness, hexa_report.richness]
        ok = all(r.involutively_generated for r in rich_reports)

        cyclic = cyclic4_antimorphism_group()
        ok &= not cyclic.is_involutively_generated()
        src = PeriodicSource(Alphabet.from_string("0123"), "0123")
        refusal = verify(cyclic, src, 300, 8, word_id="per0123", group_id="cyclic4")
        flagged = (refusal.overall != RICH) and not refusal.involutively_generated
        ok &= flagged
        report_line("8 involutive generation", ok)
        for r in rich_reports:
            assert r.involutively_generated
        assert not cyclic.is_involutively_generated()
        assert refusal.overall != RICH
        assert not refusal.involutively_generated
