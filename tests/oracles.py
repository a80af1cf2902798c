"""Oracles for the tests.  The brute-force ones enumerate every factor, suffix
or occurrence (found by ``str.find``) and share no logic with symrich's
eertrees or factor index; :func:`position_walk_edges` is an earlier edge
search of the graphs of symmetries, and :func:`subgroup_scan_reference` an
earlier ``subgroup_scan``, are kept for differential tests."""

import bisect
from collections import namedtuple

from symrich import (
    ConsistencyError,
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    SymmetryGroup,
    apply_morphism,
)
from symrich.graphs import DirectedEdge, LoopCheck, TlsVerdict, _tree, undirected_symmetry_graph
from symrich.verify import RICH, CrwRecord, SubgroupResult, min_distinguishing, verify_text


def iterated_fixed_point(rules, seed, length):
    """Oracle for ``FixedPointSource.prefix``: the morphism applied to the
    whole prefix, cut to ``length`` letters, until the prefix is that long."""
    word = seed[:length]
    while len(word) < length:
        word = apply_morphism(rules, word)[:length]
    return word


def brute_lps(antimorphisms, word):
    """The longest suffix of ``word`` fixed by one of the antimorphisms; the
    image of a suffix under theta is the prefix of theta(word) as long."""
    n = len(word)
    images = [t.apply(word) for t in antimorphisms]
    return next((word[i:] for i in range(n) if any(word[i:] == im[:n - i] for im in images)), "")


def per_group_dual_defect(group, word):
    """Per prefix length i of ``word``: (defect, palindromic classes, gamma) under
    ``group``, by the formula D(i) = i + 1 - #pal_classes(i) - gamma(i).  A class
    is found by testing every suffix of every prefix against every antimorphism
    of ``group`` (the empty word is one class); gamma counts the letter orbits
    met so far that no antimorphism fixes."""
    reps, letter_orbits, rows = set(), set(), [(0, 1, 0)]
    for i in range(1, len(word) + 1):
        for start in range(i):
            s = word[start:i]
            if any(t.apply(s) == s for t in group.antimorphisms):
                reps.add(min(g.apply(s) for g in group.elements))
        a = word[i - 1]
        if not any(t.image_of(a) == a for t in group.antimorphisms):
            letter_orbits.add(frozenset(g.image_of(a) for g in group.elements))
        pal, gamma = len(reps) + 1, len(letter_orbits)
        rows.append((i + 1 - pal - gamma, pal, gamma))
    return rows


def every_fixed_suffix(group, word):
    """The table of ``palindromes._fixed_suffixes`` by testing every suffix of
    every prefix of ``word`` against every antimorphism of ``group``: per prefix
    length i, start ascending, each fixed suffix whose string ends no shorter
    prefix, with the bitmask of the antimorphisms that fix it."""
    translations = [t.translated(word) for t in group.antimorphisms]
    seen, table = set(), [()]
    for i in range(1, len(word) + 1):
        row = []
        for start in range(i):
            s = word[start:i]
            mask = sum(1 << t for t, tr in enumerate(translations) if s == tr[start:i][::-1])
            if mask and s not in seen:
                seen.add(s)
                row.append((s, mask))
        table.append(tuple(row))
    return table


def windows(text, n):
    """The factors of length n of ``text``."""
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def closure_additions(text, n_max, group):
    """Per order n <= n_max with any: the images under ``group`` of the length-n
    windows of ``text`` that are not windows themselves (``closure_added``)."""
    added = {}
    for n in range(n_max + 1):
        base = windows(text, n)
        images = {g.apply(w) for w in base for g in group.elements} - base
        if images:
            added[n] = frozenset(images)
    return added


def window_runs(text, n_max):
    """The positions 0..|text| sorted stably by their window ``text[i:i + n_max]``,
    and per length n <= n_max the (factor, (a, b)) items of that order: each
    maximal stretch ``order[a:b]`` of positions whose windows start with one
    factor of length n, in order.  Windows shorter than n start with none."""
    order = sorted(range(len(text) + 1), key=lambda i: text[i:i + n_max])
    levels = []
    for n in range(n_max + 1):
        items = []
        for k, i in enumerate(order):
            w = text[i:i + n]
            if len(w) < n:
                continue
            if items and items[-1][0] == w and items[-1][1][1] == k:
                items[-1] = (w, (items[-1][1][0], k + 1))
            else:
                items.append((w, (k, k + 1)))
        levels.append(items)
    return order, levels


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
            words = sorted(complete_g_return_words(group, rep, text))
            records.append(CrwRecord(n, rep, tuple(v for v in words if not group.is_g_palindrome(v))))
    return records


def violating_crw_records(group, index, text, n_lo, n_hi):
    """Oracle for ``crw_records``, which records only the classes with
    violations: the records of :func:`set_union_crw_records` that have any."""
    return [r for r in set_union_crw_records(group, index, text, n_lo, n_hi) if r.violations]


def non_g_palindromes(group, words):
    """Oracle for ``SymmetryGroup.non_g_palindromes``: the words, in order,
    that ``is_g_palindrome`` rejects one at a time."""
    return [w for w in words if not group.is_g_palindrome(w)]


def tree_check(graph):
    """``graphs._tree`` on the objects of an undirected graph of symmetries."""
    edges = [(e.endpoints, e.representative) for e in graph.non_loop_edges()]
    return _tree(graph.vertex_representatives, edges)


def graph_tls_verdict(group, index, n):
    """Oracle for ``tls_verdict``: the verdict recomputed from the graph
    objects of ``undirected_symmetry_graph``, its loops by ``graph.loops()``,
    their fixers by applying every antimorphism, and the tree check by
    ``tree_check(graph)``."""
    graph = undirected_symmetry_graph(group, index, n)
    checks = tuple(LoopCheck(e.representative, tuple(
        t.name for t in group.antimorphisms if t.apply(e.representative) == e.representative
    )) for e in graph.loops())
    tree_ok, tree_witness = tree_check(graph)
    return TlsVerdict(n, checks, tree_ok, tree_witness, all(c.ok for c in checks) and tree_ok)


def distinguishing(group, factors):
    """Oracle for ``LanguageIndex.is_distinguishing``: whether distinct
    antimorphisms of ``group`` act distinctly on every given factor, by
    applying each of them to each factor.  The factors must be nonempty and
    share one length."""
    factors = list(factors)
    if not factors:
        raise GroupError("distinguishing test needs a nonempty factor set")
    n = len(factors[0])
    if any(len(w) != n for w in factors):
        raise GroupError("distinguishing test needs factors of a single length")
    antims = group.antimorphisms
    return all(len({t.apply(w) for t in antims}) == len(antims) for w in factors)


OrbitData = namedtuple("OrbitData", "columns representatives orbits distinguishing specials bispecials")


def per_factor_orbit_data(group, index, n):
    """Oracle for the orbit columns of ``index`` at order n and what is read off
    them, through the per-word methods of ``group`` and ``index``: per element
    of ``group`` its images of the factors in level order, per factor its class
    representative and orbit, the distinguishing flag, and the special and
    bispecial factors (None when order n + 1 is not indexed)."""
    level = index.sorted_factors(n)
    room = n < index.n_max
    return OrbitData(
        columns={g: tuple(g.apply(w) for w in level) for g in group.elements},
        representatives=tuple(group.class_representative(w) for w in level),
        orbits=[group.equivalence_class(w) for w in level],
        distinguishing=distinguishing(group, index.factors(n)),
        specials=tuple(w for w in level if index.is_left_special(w) or index.is_right_special(w))
        if room else None,
        bispecials=tuple(w for w in level if index.is_bispecial(w)) if room else None,
    )


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
    index.check_closed(group)
    specials = index.special_rows(n)
    rep_of = {}
    for w in specials:
        members = group.equivalence_class(w)
        for m in members:
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


def subgroup_scan_reference(index, reports=None):
    """Oracle for ``subgroup_scan``: a full ``verify_text`` report per
    subgroup with an antimorphism, in the order of ``subgroups()``, of which
    only the overall verdict is kept, and the half-order identity of each
    proper rich subgroup from the index's palindromic complexities.  Each
    report is also put in ``reports``, a dict keyed by subgroup, when given."""
    group, n_max = index.group, index.n_max - 2
    if group is None:
        raise GroupError("subgroup scan needs an index built with a group")
    group.alphabet.check_word(index.text)
    index.check_closed(group)
    n0 = min_distinguishing(group, index, n_max)
    p = {t: index.palindromic_complexity(t) for t in group.involutive_antimorphisms}
    results = []
    for sub in group.subgroups():
        if not sub.has_antimorphism:
            continue
        sub_id = "{" + ",".join(e.name for e in sub.elements) + "}"
        report = verify_text(sub, index, word_id="scan", group_id=sub_id)
        if reports is not None:
            reports[sub] = report
        overall = report.overall
        proper = len(sub) < group.order
        identity_ok, values = None, ()
        if proper and overall == RICH and n0 is not None:
            complement = [t for t in group.involutive_antimorphisms
                          if t not in sub.involutive_antimorphisms]
            values = tuple((n, sum(p[t][n] + p[t][n + 1] for t in complement))
                           for n in range(n0, n_max))
            identity_ok = 2 * sub.order == group.order and all(
                s == group.order // 2 for _, s in values)
        results.append(SubgroupResult(sub_id, sub.order, proper, overall, identity_ok, values))
    return results
