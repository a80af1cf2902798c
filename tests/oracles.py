"""Oracles for the tests.  The brute-force ones enumerate every factor, suffix
or occurrence (found by ``str.find``) and share no logic with symrich's
eertrees or factor index; :func:`position_walk_edges` is an earlier edge
search of the graphs of symmetries, kept for differential tests."""

import bisect
from collections import namedtuple

from symrich import (
    ClosureError,
    ConsistencyError,
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    SymmetryGroup,
)
from symrich.graphs import DirectedEdge
from symrich.verify import CrwRecord


def brute_lps(antimorphisms, word):
    """The longest suffix of ``word`` fixed by one of the antimorphisms; the
    image of a suffix under theta is the prefix of theta(word) as long."""
    n = len(word)
    images = [t.apply(word) for t in antimorphisms]
    return next((word[i:] for i in range(n) if any(word[i:] == im[:n - i] for im in images)), "")


def windows(text, n):
    """The factors of length n of ``text``."""
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def factors(word):
    """Every factor of ``word``, the empty word included."""
    return set().union(*(windows(word, n) for n in range(len(word) + 1)))


def classical_palindromes(word):
    """Distinct reversal-fixed factors, including the empty word."""
    return {s for s in factors(word) if s == s[::-1]}


def theta_palindromic_factors(theta, word):
    """Distinct theta-fixed factors of ``word``, including the empty word."""
    return {s for s in factors(word) if theta.apply(s) == s}


ThetaRichness = namedtuple("ThetaRichness", "pal_count gamma is_rich")


def theta_richness(theta, word):
    """Richness with respect to one involutive antimorphism, counted through
    :func:`theta_palindromic_factors`."""
    if not theta.is_involution():
        raise GroupError(f"{theta.name} is not involutive; theta-richness is undefined")
    count = len(theta_palindromic_factors(theta, word))
    gamma = len({frozenset((a, theta.image_of(a))) for a in set(word) if theta.image_of(a) != a})
    return ThetaRichness(count, gamma, count == len(word) + 1 - gamma)


def g_occurrences(group, word, text):
    """Sorted positions where any orbit member of ``word`` occurs in ``text``,
    found by ``str.find`` (every position 0..|text| for the empty word)."""
    positions = set()
    for member in group.equivalence_class(word):
        i = text.find(member)
        while i != -1:
            positions.add(i)
            i = text.find(member, i + 1)
    return sorted(positions)


def complete_g_return_words(group, word, text):
    """The stretches between consecutive G-occurrences of ``word`` in ``text``,
    both bounding orbit members included."""
    occ = g_occurrences(group, word, text)
    return frozenset(text[i:j + len(word)] for i, j in zip(occ, occ[1:]))


def set_union_crw_records(group, index, text, n_lo, n_hi):
    """Oracle for ``crw_records``: the return words of every class of the
    index's factors, from the class's occurrences merged through a set."""
    records = []
    for n in range(n_lo, n_hi + 1):
        for rep in sorted({group.class_representative(w) for w in index.factors(n)}):
            words = tuple(sorted(complete_g_return_words(group, rep, text)))
            records.append(CrwRecord(n, rep, words, tuple(v for v in words if not group.is_g_palindrome(v))))
    return records


def position_walk_edges(group, index, n):
    """Oracle for the edges of ``directed_symmetry_graph``: every occurrence of
    every special factor is sorted into one position list, and each
    (special, extension) pair takes its edge from the first of its
    occurrences with a special position after it (found by ``bisect``).
    Raises what the graph builder raises, with the same messages."""
    if n < 1:
        raise IndexRangeError("symmetry graphs are built for orders n >= 1")
    if n + 1 > index.n_max:
        raise IndexRangeError(f"order {n} needs factors of length {n + 1}")
    if index.closure_added:
        raise InsufficientPrefixError(
            "group closure had to add factors "
            f"(lengths {sorted(index.closure_added)}); the prefix is too short for graph analysis"
        )
    specials = index.specials(n)
    rep_of = {}
    for w in specials:
        members = group.equivalence_class(w)
        for m in members:
            if not index.is_factor(m):
                raise ClosureError(
                    f"orbit member {m!r} of special factor {w!r} is not an indexed factor; "
                    f"the language is not closed under the group at length {n}"
                )
            if m not in specials:
                raise ConsistencyError(
                    f"orbit member {m!r} of special factor {w!r} is not special; "
                    "closure or extension data is inconsistent"
                )
        rep_of[w] = members[0]

    text = index.text
    special_positions = sorted(q for w in rep_of for q in index.occurrences(w))
    labels = {}
    for w in rep_of:
        for q in index.occurrences(w):
            if q + n >= len(text) or (w, text[q + n]) in labels:
                continue
            k = bisect.bisect_right(special_positions, q)
            if k < len(special_positions):
                labels[w, text[q + n]] = text[q:special_positions[k] + n]

    edges = []
    for w in sorted(rep_of):
        for a in sorted(index.rext(w)):
            label = labels.get((w, a))
            if label is None:
                raise InsufficientPrefixError(
                    f"edge walk from special factor {w!r} with extension {a!r} runs off "
                    "the prefix before reaching another special factor; extend the prefix"
                )
            edges.append(DirectedEdge(label, rep_of[label[:n]], rep_of[label[-n:]]))
    return tuple(sorted(edges, key=lambda e: (e.source, e.target, e.label)))


def connected(graph):
    """Whether the vertex classes of a symmetry graph are joined by its directed
    edges taken as undirected pairs; the endpoints are class representatives,
    so the directed and undirected graphs of one order agree."""
    vertices = graph.vertex_representatives
    if len(vertices) <= 1:
        return True
    adj = {v: set() for v in vertices}
    for e in graph.directed_edges:
        adj[e.source].add(e.target)
        adj[e.target].add(e.source)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vertices)


def closure_subgroups(group):
    """Oracle for ``SymmetryGroup.subgroups``: every candidate, a known
    subgroup plus one more element, is built through ``SymmetryGroup.close``."""
    trivial = SymmetryGroup.close([group.identity]).elements
    seen = {trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        for extra in group.elements:
            if extra not in base:
                bigger = SymmetryGroup.close(base + (extra,)).elements
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return sorted((SymmetryGroup(e) for e in seen),
                  key=lambda g: (g.order, tuple(e.name for e in g.elements)))


def closure_involutively_generated(group):
    """Oracle for ``SymmetryGroup.is_involutively_generated``, through
    ``SymmetryGroup.close``."""
    involutions = group.involutive_antimorphisms
    return bool(involutions) and SymmetryGroup.close(involutions).elements == group.elements
