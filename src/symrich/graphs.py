"""Rauzy graphs, graphs of symmetries, and the tree-like-structure verdict.

The directed graph of symmetries of order n has one vertex per orbit class
of special length-n factors; an edge is a factor whose only special length-n
windows are its prefix and suffix.  The undirected variant collapses edges
into orbit classes.  A word has the tree-like structure at order n when all
loops of the undirected graph are G-palindromes and removing them leaves a
tree.

One private core, :func:`_edges`, builds both graphs as sorted plain tuples:
the vertex classes, the directed edges (source, target, label) and the edge
classes (endpoints, representative, members).  The two builders,
:func:`directed_symmetry_graph` and :func:`undirected_symmetry_graph`, wrap
the tuples in the dataclasses below; :func:`tls_verdict`, called once per
order and group, reads them directly and builds no graph object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClosureError, ConsistencyError, IndexRangeError, InsufficientPrefixError
from .index import LanguageIndex
from .symmetry import SymmetryGroup


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# -- Rauzy graph -----------------------------------------------------------------


@dataclass(frozen=True)
class RauzyGraph:
    """Vertices are the length-n factors, edges the length-(n+1) factors."""

    order: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (label, source, target)

    def to_dot(self) -> str:
        lines = [f"digraph rauzy_{self.order} {{"]
        for v in self.vertices:
            lines.append(f"  {_dot_quote(v)};")
        for label, src, dst in self.edges:
            lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def rauzy_graph(index: LanguageIndex, n: int) -> RauzyGraph:
    if n + 1 > index.n_max:
        raise IndexRangeError(f"Rauzy graph of order {n} needs factors of length {n + 1}")
    vertices = index.sorted_factors(n)
    edges = tuple((e, e[:n], e[1:]) for e in index.sorted_factors(n + 1))
    return RauzyGraph(n, vertices, edges)


# -- symmetry graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class DirectedEdge:
    label: str
    source: str  # class representative of the length-n prefix
    target: str


@dataclass(frozen=True)
class UndirectedEdge:
    """An orbit class of directed edge labels between two vertex classes."""

    representative: str
    members: tuple[str, ...]
    endpoints: tuple[str, str]  # sorted pair of class representatives

    @property
    def is_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


@dataclass(frozen=True)
class SymmetryGraph:
    order: int
    directed: bool
    vertex_classes: tuple[tuple[str, ...], ...]  # sorted members, ordered by representative
    directed_edges: tuple[DirectedEdge, ...]
    undirected_edges: tuple[UndirectedEdge, ...]

    @property
    def vertex_representatives(self) -> tuple[str, ...]:
        return tuple(cls[0] for cls in self.vertex_classes)

    def loops(self) -> tuple[UndirectedEdge, ...]:
        return tuple(e for e in self.undirected_edges if e.is_loop)

    def non_loop_edges(self) -> tuple[UndirectedEdge, ...]:
        return tuple(e for e in self.undirected_edges if not e.is_loop)

    def to_dot(self) -> str:
        if self.directed:
            lines = [f"digraph symmetries_{self.order} {{"]
            for rep in self.vertex_representatives:
                lines.append(f"  {_dot_quote('[' + rep + ']')};")
            for e in self.directed_edges:
                lines.append(
                    f"  {_dot_quote('[' + e.source + ']')} -> {_dot_quote('[' + e.target + ']')}"
                    f" [label={_dot_quote(e.label)}];"
                )
        else:
            lines = [f"graph symmetries_{self.order} {{"]
            for rep in self.vertex_representatives:
                lines.append(f"  {_dot_quote('[' + rep + ']')};")
            for e in self.undirected_edges:
                a, b = e.endpoints
                lines.append(
                    f"  {_dot_quote('[' + a + ']')} -- {_dot_quote('[' + b + ']')}"
                    f" [label={_dot_quote('[' + e.representative + ']')}];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vertex_classes(
    group: SymmetryGroup, index: LanguageIndex, n: int
) -> tuple[tuple[tuple[str, ...], ...], dict[str, str]]:
    """The sorted orbit classes of the special factors of length n, and the
    class representative of every special factor.

    Requires the factor data to be closed under the group at length n, and
    checks that orbit classes of special factors consist of special factors.
    """
    specials = index.special_rows(n)
    classes = []
    rep_of: dict[str, str] = {}
    for w, members in zip(specials, index.orbits(group, n, specials.values())):
        if w in rep_of:
            continue
        for m in members:
            if m not in specials:  # every special factor is a factor
                if not index.is_factor(m):
                    raise ClosureError(
                        f"orbit member {m!r} of special factor {w!r} is not an indexed factor; "
                        f"the language is not closed under the group at length {n}"
                    )
                raise ConsistencyError(
                    f"orbit member {m!r} of special factor {w!r} is not special; "
                    "closure or extension data is inconsistent"
                )
            rep_of[m] = members[0]
        classes.append(members)
    return tuple(sorted(classes)), rep_of


def _edges(group: SymmetryGroup, index: LanguageIndex, n: int, undirected: bool):
    """The tuples of the graphs of symmetries of order n (module docstring),
    the edge classes only when ``undirected`` (else ()).  Edges are the
    index's walks from the first occurrence of each special factor w followed
    by each of its right extensions a to the next occurrence of any special
    factor (:meth:`LanguageIndex.edge_labels`), so every edge label is a
    genuine factor of the analyzed prefix.  The walks do not depend on the
    group; only their endpoints are labelled by its classes, and the sorted
    pair of them is invariant on an edge class."""
    if n < 1:
        raise IndexRangeError("symmetry graphs are built for orders n >= 1")
    if n + 1 > index.n_max:
        raise IndexRangeError(f"order {n} needs factors of length {n + 1}")
    if index.closure_added:
        raise InsufficientPrefixError(
            "group closure had to add factors "
            f"(lengths {sorted(index.closure_added)}); the prefix is too short for graph analysis"
        )
    vertex_classes, rep_of = _vertex_classes(group, index, n)
    labels = index.edge_labels(n)
    directed = sorted([(rep_of[label[:n]], rep_of[label[-n:]], label) for label in labels])
    if not undirected:
        return vertex_classes, directed, ()
    label_set, built = set(labels), set()  # built: the members of the classes found
    classes = []
    for source, target, label in directed:
        if label in built:
            continue
        members = group.equivalence_class(label)
        built.update(members)
        for m in members:
            if m not in label_set:
                raise ClosureError(
                    f"orbit member {m!r} of edge {label!r} is not itself an edge; "
                    f"the language is not closed under the group around length {len(label)}"
                )
        endpoints = (source, target) if source <= target else (target, source)
        classes.append((endpoints, members[0], members))
    classes.sort()  # by endpoints, then representative
    return vertex_classes, directed, classes


def directed_symmetry_graph(group: SymmetryGroup, index: LanguageIndex, n: int) -> SymmetryGraph:
    """The directed graph of symmetries of order n (see :func:`_edges`)."""
    vertex_classes, directed, _ = _edges(group, index, n, False)
    return SymmetryGraph(n, True, vertex_classes, _directed_edges(directed), ())


def undirected_symmetry_graph(group: SymmetryGroup, index: LanguageIndex, n: int) -> SymmetryGraph:
    """The directed edges collapsed into orbit classes (see :func:`_edges`)."""
    vertex_classes, directed, classes = _edges(group, index, n, True)
    return SymmetryGraph(n, False, vertex_classes, _directed_edges(directed),
                         tuple(UndirectedEdge(rep, members, ends) for ends, rep, members in classes))


def _directed_edges(directed) -> tuple[DirectedEdge, ...]:
    return tuple(DirectedEdge(label, source, target) for source, target, label in directed)


# -- tree-like structure -------------------------------------------------------------


@dataclass(frozen=True)
class LoopCheck:
    edge: str
    fixer_names: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return bool(self.fixer_names)


@dataclass(frozen=True)
class TlsVerdict:
    """Loop palindromicity plus tree shape of the loop-free undirected graph.

    A graph with no vertices (no special factors, e.g. a periodic word) or a
    single vertex counts as a tree.
    """

    order: int
    loop_checks: tuple[LoopCheck, ...]
    tree_ok: bool
    tree_witness: str | None
    satisfied: bool

    @property
    def loops_ok(self) -> bool:
        return all(c.ok for c in self.loop_checks)

    @property
    def witness(self) -> str | None:
        if self.satisfied:
            return None
        parts = []
        bad = [c.edge for c in self.loop_checks if not c.ok]
        if bad:
            parts.append(f"non-palindromic loop(s) {bad}")
        if not self.tree_ok:
            parts.append(self.tree_witness)
        return "; ".join(parts)


def _forest_path(forest: dict[str, set[str]], a: str, b: str) -> list[str] | None:
    """The path from a to b in the forest, or None when the forest does not join them."""
    stack = [[a]]
    seen = {a}
    while stack:
        path = stack.pop()
        if path[-1] == b:
            return path
        for nb in forest[path[-1]]:
            if nb not in seen:
                seen.add(nb)
                stack.append(path + [nb])
    return None


def _tree(vertices, edges) -> tuple[bool, str | None]:
    """Whether the loop-free graph on the vertex representatives with these
    sorted non-loop edge classes (endpoints, representative) is a tree, and
    the witness of its first failure."""
    pair_seen: dict[tuple[str, str], str] = {}
    for endpoints, rep in edges:
        if endpoints in pair_seen:
            return False, (
                f"parallel edge classes [{pair_seen[endpoints]}] and [{rep}] "
                f"between [{endpoints[0]}] and [{endpoints[1]}]"
            )
        pair_seen[endpoints] = rep

    forest: dict[str, set[str]] = {v: set() for v in vertices}
    components = len(vertices)
    cycle = None
    for (a, b), _ in edges:
        path = _forest_path(forest, a, b)
        if path is not None:
            # the forest built so far already joins a and b: this edge closes a cycle
            if cycle is None:
                cycle = path + [a]
            continue
        forest[a].add(b)
        forest[b].add(a)
        components -= 1  # the edge joins two components of the forest
    if components > 1:
        return False, "loop-free graph is disconnected"
    if cycle is not None:
        return False, f"cycle through {cycle}"
    return True, None


def _tree_check(graph: SymmetryGraph) -> tuple[bool, str | None]:
    """:func:`_tree` on the objects of an undirected graph of symmetries."""
    edges = [(e.endpoints, e.representative) for e in graph.non_loop_edges()]
    return _tree(graph.vertex_representatives, edges)


def tls_verdict(group: SymmetryGroup, index: LanguageIndex, n: int) -> TlsVerdict:
    """The verdict at order n, read off the tuples of :func:`_edges`."""
    vertex_classes, _, classes = _edges(group, index, n, True)
    loop_checks, links = [], []
    for endpoints, rep, _ in classes:
        if endpoints[0] == endpoints[1]:
            loop_checks.append(LoopCheck(rep, tuple(t.name for t in group.antimorphic_fixers(rep))))
        else:
            links.append((endpoints, rep))
    tree_ok, tree_witness = _tree([members[0] for members in vertex_classes], links)
    loops_ok = all(c.ok for c in loop_checks)
    return TlsVerdict(n, tuple(loop_checks), tree_ok, tree_witness, loops_ok and tree_ok)


# -- bispecial characterization ---------------------------------------------------


@dataclass(frozen=True)
class BispecialRecord:
    """Bilateral-order conditions for one bispecial factor.

    Non-palindromic bispecials must have bilateral order 0; a factor fixed by
    an antimorphism must satisfy b(w) = #Pext(w) - 1 for that antimorphism.
    """

    n: int
    factor: str
    bilateral: int
    fixer_names: tuple[str, ...]
    pext_sizes: tuple[int, ...]

    @property
    def is_g_palindrome(self) -> bool:
        return bool(self.fixer_names)

    @property
    def ok(self) -> bool:
        if not self.fixer_names:
            return self.bilateral == 0
        return all(self.bilateral == p - 1 for p in self.pext_sizes)


def bispecial_check(group: SymmetryGroup, index: LanguageIndex, n_range) -> list[BispecialRecord]:
    records = []
    for n in n_range:
        for w in index.bispecials(n):
            fixers = group.antimorphic_fixers(w)
            records.append(BispecialRecord(
                n=n,
                factor=w,
                bilateral=index.bilateral_order(w),
                fixer_names=tuple(t.name for t in fixers),
                pext_sizes=tuple(len(index.pext(t, w)) for t in fixers),
            ))
    return records


# -- complexity identity -------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityIdentityRecord:
    """One order n of the palindromic-complexity balance.

    lhs = dC(n) + #G, rhs = sum over involutive antimorphisms of
    P(n) + P(n+1); when the data allows it, the second-difference form
    (d2C(n) against the palindromic-extension surplus) is evaluated too.
    """

    n: int
    lhs: int
    rhs: int
    distinguishing: bool
    second_diff: tuple[int, int] | None  # (d2C(n), pext surplus), None when out of range

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def holds(self) -> bool:
        """The bound lhs >= rhs, meaningful at distinguishing orders."""
        return self.lhs >= self.rhs


def complexity_identity(group: SymmetryGroup, index: LanguageIndex, n_range) -> list[ComplexityIdentityRecord]:
    c = index.complexities()
    # pals[t][n]: the t-palindromes of length n, listed once for both sides of the balance
    pals = {t: [index.theta_palindromes(t, n) for n in range(index.n_max + 1)]
            for t in group.involutive_antimorphisms}
    records = []
    for n in n_range:
        if n + 1 > index.n_max:
            raise IndexRangeError(f"identity at order {n} needs factors of length {n + 1}")
        lhs = (c[n + 1] - c[n]) + group.order
        rhs = sum(len(pals[t][n]) + len(pals[t][n + 1]) for t in group.involutive_antimorphisms)
        distinguishing = index.is_distinguishing(group, n)
        second = None
        if n + 2 <= index.n_max:
            d2 = (c[n + 2] - c[n + 1]) - (c[n + 1] - c[n])
            surplus = sum(
                len(index.pext(t, w)) - 1
                for t in group.involutive_antimorphisms
                for w in pals[t][n]
            )
            second = (d2, surplus)
        records.append(ComplexityIdentityRecord(n, lhs, rhs, distinguishing, second))
    _check_identity_chain(records)
    return records


def _check_identity_chain(records: list[ComplexityIdentityRecord]) -> None:
    """The equality flags must be consistent with the second-difference form.

    rhs(n+1) - rhs(n) equals the palindromic-extension surplus at n by the
    extension identity, and lhs(n+1) - lhs(n) is d2C(n); adjacent records
    must agree with the stored second differences.
    """
    by_n = {r.n: r for r in records}
    for r in records:
        nxt = by_n.get(r.n + 1)
        if nxt is None or r.second_diff is None:
            continue
        lhs_step = nxt.lhs - r.lhs
        rhs_step = nxt.rhs - r.rhs
        if lhs_step != r.second_diff[0] or rhs_step != r.second_diff[1]:
            raise ConsistencyError(
                f"complexity identity chain broken between orders {r.n} and {r.n + 1}: "
                f"steps ({lhs_step}, {rhs_step}) vs second differences {r.second_diff}"
            )
