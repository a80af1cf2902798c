import ast
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import connected, tree_check
from symrich import (
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    LanguageIndex,
    bispecial_check,
    complexity_identity,
    directed_symmetry_graph,
    rauzy_graph,
    tls_verdict,
    undirected_symmetry_graph,
)
from symrich.cli import main
from symrich.graphs import DirectedEdge, SymmetryGraph, TlsVerdict, UndirectedEdge
from symrich.presets import (
    BINARY,
    binary_full_group,
    exchange_group,
    octa_group,
    octa_source,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import SymmetryGroup, SymmetryMap
from symrich.words import Alphabet, PeriodicSource

R = SymmetryMap.reversal(BINARY)


def classes(graph):
    return {frozenset(cls) for cls in graph.vertex_classes}


def loop_classes(graph):
    return {frozenset(e.members) for e in graph.loops()}


def connecting_classes(graph):
    return {frozenset(e.members) for e in graph.non_loop_edges()}


class TestRauzy:
    def test_thue_morse_order_3(self, tm_index):
        g = rauzy_graph(tm_index, 3)
        assert len(g.vertices) == 6 and len(g.edges) == 10
        assert ("0110", "011", "110") in g.edges

    def test_fibonacci_order_3(self, fib_index):
        g = rauzy_graph(fib_index, 3)
        assert len(g.vertices) == 4 and len(g.edges) == 5

    def test_t33_order_3(self, t33_index):
        assert len(rauzy_graph(t33_index, 3).vertices) == 15

    def test_degrees_match_extensions(self, tm_index):
        g = rauzy_graph(tm_index, 4)
        for v in g.vertices:
            out = [e for e in g.edges if e[1] == v]
            incoming = [e for e in g.edges if e[2] == v]
            assert len(out) == len(tm_index.rext(v))
            assert len(incoming) == len(tm_index.lext(v))

    def test_out_of_range(self, tm_index):
        with pytest.raises(IndexRangeError):
            rauzy_graph(tm_index, tm_index.n_max)


class TestDirectedGraphs:
    def test_fibonacci_loops(self, fib_index, id_r):
        g = directed_symmetry_graph(id_r, fib_index, 3)
        assert classes(g) == {frozenset({"010"})}
        assert sorted(e.label for e in g.directed_edges) == ["010010", "01010"]

    def test_thue_morse_ten_edges(self, tm_index, i2_2):
        g = directed_symmetry_graph(i2_2, tm_index, 3)
        assert classes(g) == {frozenset({"011", "110", "100", "001"}),
                              frozenset({"101", "010"})}
        assert len(g.directed_edges) == 10
        labels = {e.label for e in g.directed_edges}
        assert labels == {"0010", "0011", "0100", "0101", "0110",
                          "1001", "1010", "1011", "1100", "1101"}

    def test_periodic_word_no_specials(self):
        src = PeriodicSource(Alphabet.from_string("01"), "01")
        index = LanguageIndex(src.prefix(60), 8, exchange_group())
        g = directed_symmetry_graph(exchange_group(), index, 3)
        assert g.vertex_classes == () and g.directed_edges == ()

    def test_connected(self, tm_index, i2_2):
        assert connected(directed_symmetry_graph(i2_2, tm_index, 5))

    def test_connected_agrees_with_undirected(self, tm_index, tm_index_r, fib_index, t33_index,
                                              i2_2, id_r, i2_3):
        for group, index in ((i2_2, tm_index), (id_r, tm_index_r), (id_r, fib_index), (i2_3, t33_index)):
            for n in range(1, index.n_max):
                directed = directed_symmetry_graph(group, index, n)
                assert connected(directed) == connected(undirected_symmetry_graph(group, index, n))


def orbit_collapsed(group, directed):
    """The undirected graph of a directed one, with the orbit of every directed
    edge computed and the first edge of each class kept."""
    undirected = {}
    for e in directed.directed_edges:
        members = tuple(sorted({g.apply(e.label) for g in group.elements}))
        endpoints = tuple(sorted((e.source, e.target)))
        undirected.setdefault(members[0], UndirectedEdge(members[0], members, endpoints))
    edges = tuple(sorted(undirected.values(), key=lambda e: (e.endpoints, e.representative)))
    return SymmetryGraph(directed.order, False, directed.vertex_classes, directed.directed_edges, edges)


class TestEdgeWalkPerIndex:
    """The edge walks of the graphs of symmetries run once per order of an
    index, whichever groups read them."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Per (index, order): how often the edges were walked."""
        real, found = LanguageIndex._walk_edges, Counter()

        def spy(index, n):
            found[id(index), n] += 1
            return real(index, n)

        monkeypatch.setattr(LanguageIndex, "_walk_edges", spy)
        return found

    def test_subgroups_walk_each_order_once(self, walks, monkeypatch, capsys):
        real, reads = LanguageIndex.edge_labels, Counter()

        def spy(index, n):
            reads[n] += 1
            return real(index, n)

        monkeypatch.setattr(LanguageIndex, "edge_labels", spy)
        assert main(["--length", "1000", "repro", "subgroups"]) == 0
        assert capsys.readouterr().out.count("subgroup ") == 11
        # one index, orders 1..20, each walked once; every order is read by the
        # index group and the 3 rich proper subgroups, and the top order by the
        # 7 refuted ones too, whose tree-like structure fails there already
        assert len({index for index, _ in walks}) == 1
        assert sorted(n for _, n in walks) == list(range(1, 21))
        assert set(walks.values()) == {1}
        assert reads == {**dict.fromkeys(range(1, 20), 4), 20: 11}

    def test_walk_off_the_prefix_raises_for_every_group(self, walks):
        # the factors of 00101100 up to length 3 are closed under the full group
        index = LanguageIndex("00101100", 3, binary_full_group())
        assert index.g_closed
        message = ("edge walk from special factor '10' with extension '0' runs off "
                   "the prefix before reaching another special factor; extend the prefix")
        for group in (reversal_group(BINARY), binary_full_group(), reversal_group(BINARY)):
            with pytest.raises(InsufficientPrefixError) as error:
                directed_symmetry_graph(group, index, 2)
            assert str(error.value) == message
        # a failed walk is not kept: each group's call walks the order again
        assert walks == {(id(index), 2): 3}

    def test_index_not_closed_rejected(self, walks):
        # LanguageIndex.check_closed comes before any walk: an index built with
        # no group or a smaller one, and one that closure added to
        text = thue_morse_source().prefix(13)
        for index_group in (None, reversal_group(BINARY)):
            with pytest.raises(GroupError, match="does not contain"):
                directed_symmetry_graph(binary_full_group(), LanguageIndex(text, 6, index_group), 4)
        with pytest.raises(InsufficientPrefixError, match=r"^group closure added factors at "
                                                          r"lengths \[4, 5, 6\], so the prefix"):
            undirected_symmetry_graph(binary_full_group(), LanguageIndex(text, 6, binary_full_group()), 4)
        assert walks == {}


class TestUndirectedGraphs:
    def test_thue_morse_full_group(self, tm_index, i2_2):
        g = undirected_symmetry_graph(i2_2, tm_index, 3)
        assert connecting_classes(g) == {frozenset({"0100", "0010", "1011", "1101"})}
        assert loop_classes(g) == {
            frozenset({"1010", "0101"}),
            frozenset({"1100", "0011"}),
            frozenset({"1001", "0110"}),
        }

    def test_thue_morse_reversal_only(self, tm_index_r, id_r):
        g = undirected_symmetry_graph(id_r, tm_index_r, 3)
        assert classes(g) == {frozenset({"011", "110"}), frozenset({"101"}),
                              frozenset({"010"}), frozenset({"001", "100"})}
        assert len(g.non_loop_edges()) == 4 and len(g.loops()) == 2

    def test_t33_loops(self, t33_index, i2_3):
        g = undirected_symmetry_graph(i2_3, t33_index, 3)
        assert classes(g) == {frozenset({"012", "120", "201"})}
        assert loop_classes(g) == {
            frozenset({"0120", "1201", "2012"}),
            frozenset({"012120", "120201", "201012"}),
            frozenset({"012201", "120012", "201120"}),
        }

    def test_loop_palindromicity_is_class_invariant(self, tm_index, t33_index, i2_2, i2_3):
        for group, index in ((i2_2, tm_index), (i2_3, t33_index)):
            for n in range(1, 8):
                g = undirected_symmetry_graph(group, index, n)
                for loop in g.loops():
                    verdicts = {group.is_g_palindrome(m) for m in loop.members}
                    assert len(verdicts) == 1

    def test_one_orbit_per_edge_class(self, tm_index, tm_index_r, fib_index, t33_index,
                                      i2_2, id_r, i2_3, monkeypatch):
        orbits = []
        equivalence_class = SymmetryGroup.equivalence_class

        def counted(group, word):
            orbits.append(word)
            return equivalence_class(group, word)

        monkeypatch.setattr(SymmetryGroup, "equivalence_class", counted)
        cases = ((i2_2, tm_index), (id_r, tm_index_r), (id_r, fib_index), (i2_3, t33_index))
        for group, index in cases:
            for n in range(1, 10):
                orbits.clear()
                graph = undirected_symmetry_graph(group, index, n)
                # vertices have length n, edge labels are longer
                assert len([w for w in orbits if len(w) > n]) == len(graph.undirected_edges)
                assert graph == orbit_collapsed(group, directed_symmetry_graph(group, index, n))

    def test_fibonacci_dot_output(self, fib_index, id_r):
        dot = undirected_symmetry_graph(id_r, fib_index, 3).to_dot()
        assert dot == (
            'graph symmetries_3 {\n'
            '  "[010]";\n'
            '  "[010]" -- "[010]" [label="[010010]"];\n'
            '  "[010]" -- "[010]" [label="[01010]"];\n'
            '}\n'
        )


class TestTls:
    def test_thue_morse_full_group_satisfied(self, tm_index, i2_2):
        assert tls_verdict(i2_2, tm_index, 3).satisfied

    def test_thue_morse_reversal_fails_with_cycle(self, tm_index_r, id_r):
        verdict = tls_verdict(id_r, tm_index_r, 3)
        assert not verdict.satisfied
        assert not verdict.tree_ok
        assert "cycle" in verdict.tree_witness
        assert verdict.tree_witness == "cycle through ['011', '001', '010', '101', '011']"

    def test_fibonacci_satisfied(self, fib_index, id_r):
        verdict = tls_verdict(id_r, fib_index, 3)
        assert verdict.satisfied and verdict.loops_ok

    def test_periodic_vacuous(self):
        src = PeriodicSource(Alphabet.from_string("01"), "01")
        index = LanguageIndex(src.prefix(60), 8, exchange_group())
        assert tls_verdict(exchange_group(), index, 3).satisfied


def hand_built(vertices, pairs):
    """An undirected graph of symmetries on the given class representatives,
    one edge class per (label, a, b) triple, each with one directed edge."""
    directed = tuple(DirectedEdge(label, a, b) for label, a, b in pairs)
    edges = tuple(UndirectedEdge(label, (label,), (a, b)) for label, a, b in pairs)
    return SymmetryGraph(1, False, tuple((v,) for v in vertices), directed, edges)


@st.composite
def multigraph_st(draw):
    """Up to 6 vertices, up to 8 non-loop edges (parallel ones allowed) with
    sorted endpoints, as in a graph of symmetries, and up to 2 loops."""
    vertices = "abcdef"[:draw(st.integers(0, 6))]
    if not vertices:
        return vertices, []
    vertex = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]).map(sorted),
                          max_size=8 if len(vertices) > 1 else 0))
    loops = draw(st.lists(vertex.map(lambda v: (v, v)), max_size=2))
    return vertices, [(f"e{i}", a, b) for i, (a, b) in enumerate(draw(st.permutations(pairs + loops)))]


class TestTreeCheckWitness:
    def test_parallel_edges_before_disconnection(self):
        graph = hand_built("abcd", [("x", "a", "b"), ("y", "a", "b")])
        assert tree_check(graph) == (False, "parallel edge classes [x] and [y] between [a] and [b]")

    def test_disconnection_before_cycle(self):
        graph = hand_built("abcd", [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")])
        assert tree_check(graph) == (False, "loop-free graph is disconnected")

    def test_cycle_in_connected_graph(self):
        graph = hand_built("abc", [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")])
        assert tree_check(graph) == (False, "cycle through ['a', 'b', 'c', 'a']")

    @pytest.mark.parametrize("vertices, pairs, kind", [
        ("abcd", [("x", "a", "b"), ("y", "a", "b")], "parallel"),
        ("abcd", [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")], "disconnected"),
        ("abc", [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")], "cycle"),
    ])
    def test_verdict_witness_names_the_failure(self, vertices, pairs, kind):
        tree_ok, tree_witness = tree_check(hand_built(vertices, pairs))
        verdict = TlsVerdict(1, (), tree_ok, tree_witness, False)
        assert not tree_ok and kind in tree_witness
        assert verdict.witness == tree_witness

    @given(case=multigraph_st())
    @settings(max_examples=300, deadline=None)
    def test_tree_check_against_oracle(self, case):
        vertices, pairs = case
        graph = hand_built(vertices, pairs)
        links = [(a, b) for _, a, b in pairs if a != b]
        parallel = len(set(links)) < len(links)
        joined = connected(graph)
        tree_ok, witness = tree_check(graph)
        # a graph with no vertices counts as a tree
        assert tree_ok == (not parallel and joined and len(links) == max(len(vertices) - 1, 0))
        if tree_ok:
            assert witness is None
        elif parallel:
            assert witness.startswith("parallel edge classes ")
        elif not joined:
            assert witness == "loop-free graph is disconnected"
        else:
            assert witness.startswith("cycle through ")
            walk = ast.literal_eval(witness.removeprefix("cycle through "))
            assert len(walk) >= 4 and walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1
            assert all(tuple(sorted(step)) in links for step in zip(walk, walk[1:]))

    def test_small_graphs_are_trees(self):
        assert tree_check(hand_built("", [])) == (True, None)
        assert tree_check(hand_built("a", [("x", "a", "a")])) == (True, None)
        assert tree_check(hand_built("ab", [("x", "a", "b")])) == (True, None)


class TestBispecial:
    def test_octa_letters(self):
        group = octa_group()
        index = LanguageIndex(octa_source().prefix(800), 6, group)
        records = bispecial_check(group, index, [1])
        assert records
        for r in records:
            assert r.bilateral == 0
            assert len(index.lext(r.factor)) == 2 and len(index.rext(r.factor)) == 2
            assert r.ok

    def test_fibonacci_bispecial(self, fib_index, id_r):
        record = next(r for r in bispecial_check(id_r, fib_index, [3]) if r.factor == "010")
        assert record.bilateral == 0
        assert record.pext_sizes == (1,)
        assert record.ok

    def test_t33_bispecial_012(self, t33_index, i2_3):
        record = next(r for r in bispecial_check(i2_3, t33_index, [3]) if r.factor == "012")
        assert record.is_g_palindrome
        assert record.ok  # b = #Pext - 1 for its fixer


class TestComplexityIdentity:
    def test_fibonacci_identity(self, id_r):
        from symrich.presets import fibonacci_source

        index = LanguageIndex(fibonacci_source().prefix(2000), 52, id_r)
        records = complexity_identity(id_r, index, range(1, 51))
        for r in records:
            assert r.distinguishing
            assert r.lhs == 1 + 2 and r.rhs == 3 and r.equal

    def test_thue_morse_fails_at_3_for_reversal(self, tm_index_r, id_r):
        records = {r.n: r for r in complexity_identity(id_r, tm_index_r, range(1, 10))}
        assert records[3].lhs == 6 and records[3].rhs == 4
        assert not records[3].equal and records[3].holds

    def test_second_difference_agrees(self, tm_index, i2_2):
        for r in complexity_identity(i2_2, tm_index, range(1, 11)):
            assert r.second_diff is not None and r.second_diff[0] == r.second_diff[1]
