"""Factor indexing of a finite prefix.

The index groups the positions 0..|text| of the text by their window
``text[i:i + n_max]`` in one pass and sorts the distinct windows: C(n_max)
full ones and the n_max shorter ones, the tails of the text.  Their ascending
position lists, joined, are the positions sorted stably by window.  Each level
maps a factor to its run ``(a, b)`` in the sorted order, so it lists its
factors in lexicographic order, and the occurrences of the factor are the
sorted positions ``order[a:b]``.  Level ``n_max`` is the full windows; each
level below is read off the one above by the prefix rule after the lemma.

With a group, each level is completed under it.  The images of its factors
that do not occur, none on a long enough prefix of a closed word, are
recorded in ``closure_added`` and counted per length in one INFO record on
the ``symrich`` logger.  They have no occurrences, and join their level in
order, with the empty run ``(0, 0)``, on its first ordered read (sorted
factors, extension tables, columns, specials, palindromes); the other
queries read them beside the level.

Precondition of the analyses.  The source paper states the tree-like
structure and the return-word characterization for languages closed under
the group, so the graphs of symmetries, the return words and the subgroup
scan take only an index built with a group containing the analysed one, to
which closure added nothing (:meth:`LanguageIndex.check_closed`): each level
is then the set of the text's factors of its length, closed under the group.

Lemma (top-order closure).  Let F_m be the set of length-m factors of the
text, m <= N <= |text|, and G a group of morphisms and antimorphisms.

1. If F_N is closed under G, so is F_m.
2. G(F_m) is the set of length-m factors of the words of G(F_N).

Proof.  A length-m factor u at position p lies inside the length-N factor v
at min(p, |text| - N), and for g in G the word g(u) is a factor of g(v): at
the same offset for a morphism, at the mirrored offset for an antimorphism.
(1) g(v) is in F_N, so it occurs, and g(u) occurs inside it.  (2) Each g(u)
is a length-m factor of g(v) by the above; conversely a length-m factor of
g(v) is g(u') for a length-m factor u' of v, and u' is in F_m.

Rule (prefix).  For n < n_max, F_n is the set of the n-prefixes of F_(n+1)
and the tail ``text[|text| - n:]``.  Proof.  A factor at p < |text| - n
extends by ``text[p + n]``; the only other start is |text| - n.  This is (2)
with N = n + 1 and no symmetry: a suffix u[1:] of a factor u is the prefix of
the factor one position on, except at the tail.  In window order the words
that start with a factor are neighbours, and the tail sorts just before the
windows it prefixes, so the run of a factor is the join of the runs of its
extensions, and of the tail if the factor is the tail.  Each level costs the
factors of the level above, so the levels together cost the number of
factors, not |text| * n_max.

By (2) with N = n + 1, the completed level n holds the length-n factors of
the completed level n + 1.  Those of F_(n+1) are in F_n, so closure adds at
order n the words u[:-1] and u[1:] of the additions u at order n + 1 that
are not in F_n.  Only level ``n_max`` is translated, once per map, and the
walk stops at the first order that gains nothing; by (1) all below are closed.

Orbit columns.  For a map g and an order n, the column of g is the tuple of
the images g(w) of the factors w of level n, in level order: the image of
the joined level cut into pieces of n letters, reversed for an antimorphism.
Columns are built on first query and keyed by map, so every subgroup of the
index's group reads the translates the first one made.  The representatives
of a group at order n are the element-wise ``min`` of its columns, the orbit
of a factor is the set of its row across them, a factor is a theta-palindrome
when it equals its row in the column of theta (kept per theta and n), and an
order distinguishes the antimorphisms when every two of their columns differ
in every row.

Extension sets are read off the level above.  A length-n factor w has the
left letters a with a·w at level n + 1 and the right letters b with w·b
there.  Each of the two tables is built in one pass on the first query at its
order and kept: the words u of level n + 1 split into keys (u[1:] or u[:-1])
and letters (u[0] or u[-1]), and each factor of level n gets the set of its
keys' letters, one shared object per distinct set.  By (2) every key is at
level n; a key outside it raises ConsistencyError.  Only a key met more than
once, next to itself in the sorted keys, needs more than a one-element set.
The tables list the factors in level order, so the special and bispecial
factors of an order are read off the set sizes of its lext and rext tables,
once for every group.  The bilateral pairs (a, b), with a·w·b at level n + 2,
are derived on each query: a·w·b is there exactly when a is a left letter of w
and b a right letter of a·w, by (2).  Only bispecial and theta-fixed factors
are asked for them, so no table of them is kept.  Pext_theta(w) is the set of
a with (a, theta(a)) among them.  As the extensions are defined by membership,
the classical counting identities are exact on any finite text:

* sum over L_n of (#Lext - 1) = C(n+1) - C(n), likewise for Rext,
* sum over L_n of b(w) = second difference of C,
* P(n+2) = sum of #Pext over fixed factors of length n, per antimorphism.

The edges of the graphs of symmetries of order n are walks of the text
between special windows, and the special factors are the same for every
group, so each order is walked once and every group labels the edges by its
own classes.

:func:`stability_check` compares factor sets at the top order only.  Let u
be a prefix of v and n <= |u|.  If u and v have the same factors of length
n, they have the same factors of every length m <= n: a length-m factor of v
at position p >= n - m is a suffix of the length-n factor at p - (n - m),
and one at p < n - m lies inside the prefix of length n of u.
"""

from __future__ import annotations

import logging
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, combinations, compress, count
from operator import and_, eq, itemgetter, lt, or_

from .errors import ConsistencyError, GroupError, IndexRangeError, InsufficientPrefixError
from .palindromes import TextPalindromes
from .symmetry import SymmetryGroup, SymmetryMap
from .words import WordSource

_log = logging.getLogger("symrich")

#: per extension kind: how a word of the level above splits into the factor
#: (key) and its extension letter (value)
_EXTENSIONS = {
    "lext": (itemgetter(slice(1, None)), itemgetter(0)),
    "rext": (itemgetter(slice(None, -1)), itemgetter(-1)),
}

_several = partial(lt, 1)  # a set size of two or more: a special side


class _Singletons(dict):
    """x -> frozenset({x}), made on first use: one set object per letter."""

    def __missing__(self, x):
        self[x] = single = frozenset((x,))
        return single


class LanguageIndex:
    """Occurrence and extension data for all factors of a text up to ``n_max``:
    the factors of each length are runs of the positions in window order (see
    the module docstring).  Lext/Rext need n < n_max and Bext/Pext n < n_max - 1.
    """

    def __init__(self, text: str, n_max: int, group: SymmetryGroup | None = None):
        if n_max < 0:
            raise IndexRangeError(f"n_max must be nonnegative, got {n_max}")
        if n_max > len(text):
            raise IndexRangeError(f"n_max={n_max} exceeds text length {len(text)}")
        self.text = text
        self.n_max = n_max
        self.group = group

        size = len(text) + 1  # position len(text) holds only the empty factor
        runs: defaultdict[str, list[int]] = defaultdict(list)  # window -> its positions
        for i in range(size):
            runs[text[i:i + n_max]].append(i)
        windows = sorted(runs)
        self._order = list(chain.from_iterable(map(runs.__getitem__, windows)))

        ends = list(accumulate(len(runs[w]) for w in windows))
        spans = dict(zip(windows, zip([0, *ends], ends)))  # window -> its run
        level = {w: run for w, run in spans.items() if len(w) == n_max}
        self._levels: list[dict[str, tuple[int, int]]] = [level]
        for n in range(n_max - 1, -1, -1):  # the prefix rule
            tail = text[len(text) - n:]
            items = list(level.items())
            insort(items, (tail, spans[tail]))
            level = {}
            for u, (a, b) in items:
                w = u[:n]
                level[w] = (level[w][0] if w in level else a, b)
            self._levels.append(level)
        self._levels.reverse()

        self.closure_added: dict[int, frozenset[str]] = {}
        if group is not None and n_max:
            # the top-order closure lemma
            n, level = n_max, self._levels[n_max]
            joined = "".join(level)
            others = [g for g in group.elements if not g.is_identity()]
            added = set(_cut([g.apply(joined) for g in others], n)).difference(level)
            while added:
                self.closure_added[n] = frozenset(added)
                n -= 1
                level = self._levels[n]
                added = {v for u in added for v in (u[:-1], u[1:]) if v not in level}
            if self.closure_added and _log.isEnabledFor(logging.INFO):
                _log.info("group closure added factors to the index: %s", ", ".join(
                    f"{len(added)} of length {n}" for n, added in sorted(self.closure_added.items())
                ))
        self._unmerged = dict(self.closure_added)  # n -> additions not yet in level n

        # (kind, n) -> factor of length n -> its extensions of that kind
        self._tables: dict[tuple[str, int], dict[str, frozenset]] = {}
        self._singletons = _Singletons()  # shared by the tables of every kind and order
        # (map, n) -> the images of the factors of length n, in level order
        self._columns: dict[tuple[SymmetryMap, int], tuple[str, ...]] = {}
        # (theta, n) -> the theta-palindromes of length n, in level order
        self._fixed: dict[tuple[SymmetryMap, int], tuple[str, ...]] = {}
        # n -> what _special_lists returns for n
        self._specials: dict[int, tuple[dict[str, int], tuple[str, ...]]] = {}
        # n -> the edge labels of order n
        self._edges: dict[int, tuple[str, ...]] = {}

    @cached_property
    def _palindromes(self) -> TextPalindromes:
        """The palindrome work on the text under the index's group, built on first
        use and read by every subgroup the text is verified against."""
        return TextPalindromes(self.group, self.text)

    # -- basic queries --------------------------------------------------------

    @property
    def g_closed(self) -> bool:
        """True when a group was supplied and closure added no factor."""
        return self.group is not None and not self.closure_added

    def check_closed(self, group: SymmetryGroup) -> None:
        """Raise unless the index meets the precondition of the analyses under
        ``group`` (module docstring)."""
        if self.group is None or any(g not in self.group for g in group.elements):
            raise GroupError(f"index group {self.group!r} does not contain the group {group!r}")
        if not self.g_closed:
            raise InsufficientPrefixError(
                f"group closure added factors at lengths {sorted(self.closure_added)}, so the "
                "prefix is not closed under the group; extend the prefix"
            )

    def _check_n(self, n: int, *, room: int = 0) -> None:
        if not 0 <= n <= self.n_max - room:
            raise IndexRangeError(
                f"length {n} outside indexed range 0..{self.n_max}"
                + (f" (query needs {room} extra length level(s))" if room else "")
            )

    def _level(self, n: int) -> dict[str, tuple[int, int]]:
        """Level n in order, its closure additions merged in on the first call."""
        if added := self._unmerged.pop(n, None):
            level = self._levels[n]
            merged = self._levels[n] = dict.fromkeys(sorted([*level, *added]), (0, 0))
            merged.update(level)  # the runs, in the sorted key order
        return self._levels[n]

    def factors(self, n: int) -> frozenset[str]:
        self._check_n(n)
        return frozenset(chain(self._levels[n], self._unmerged.get(n, ())))

    def sorted_factors(self, n: int) -> tuple[str, ...]:
        self._check_n(n)
        return tuple(self._level(n))

    def is_factor(self, w: str) -> bool:
        self._check_n(len(w))
        return w in self._levels[len(w)] or w in self._unmerged.get(len(w), ())

    def occurrences(self, w: str) -> tuple[int, ...]:
        """Sorted start positions of ``w`` in the text (empty for closure-added factors)."""
        self._check_n(len(w))
        a, b = self._levels[len(w)].get(w, (0, 0))
        return tuple(sorted(self._order[a:b]))

    def occurrence_count(self, w: str) -> int:
        """How often ``w`` occurs in the text, read off its run without listing it."""
        self._check_n(len(w))
        a, b = self._levels[len(w)].get(w, (0, 0))
        return b - a

    # -- extensions -----------------------------------------------------------

    def _table(self, kind: str, n: int) -> dict[str, frozenset]:
        """The extension letters of that kind of every factor of length n, read
        off level n + 1."""
        table = self._tables.get((kind, n))
        if table is not None:
            return table
        key, value = _EXTENSIONS[kind]
        self._check_n(n, room=1)
        level, above = self._level(n), self._level(n + 1)
        keys, values = list(map(key, above)), list(map(value, above))
        table = dict.fromkeys(level, frozenset())
        table.update(zip(keys, map(self._singletons.__getitem__, values)))
        if len(table) != len(level):
            raise ConsistencyError(
                f"level {n + 1} extends {len(table) - len(level)} word(s) of length {n} "
                f"that are not at level {n}"
            )
        # a factor with several extensions is a key that sorts next to itself
        ranked = sorted(keys)
        several = set(compress(ranked, map(eq, ranked, ranked[1:])))
        found: dict[str, set] = {w: set() for w in several}
        for w, x in compress(zip(keys, values), map(several.__contains__, keys)):
            found[w].add(x)
        shared: dict[frozenset, frozenset] = {}  # one object per distinct set
        for w, xs in found.items():
            xs = frozenset(xs)
            table[w] = shared.setdefault(xs, xs)
        self._tables[kind, n] = table
        return table

    def _extensions(self, kind: str, w: str) -> frozenset:
        table = self._table(kind, len(w))
        if w not in table:
            raise IndexRangeError(f"{w!r} is not an indexed factor")
        return table[w]

    def lext(self, w: str) -> frozenset[str]:
        return self._extensions("lext", w)

    def rext(self, w: str) -> frozenset[str]:
        return self._extensions("rext", w)

    def bext(self, w: str) -> frozenset[tuple[str, str]]:
        """The pairs (a, b) with a·w·b a factor: a left letter of w, b a right letter of a·w."""
        self._check_n(len(w), room=2)
        return frozenset((a, b) for a in self.lext(w) for b in self.rext(a + w))

    def bilateral_order(self, w: str) -> int:
        return len(self.bext(w)) - len(self.lext(w)) - len(self.rext(w)) + 1

    def pext(self, theta: SymmetryMap, w: str) -> frozenset[str]:
        """Letters a with a + w + theta(a) again a factor; w must be theta-fixed."""
        if not theta.antimorphic:
            raise GroupError(f"{theta.name} is not an antimorphism")
        if theta.apply(w) != w:
            raise GroupError(f"{w!r} is not fixed by {theta.name}; filter before querying")
        self._check_n(len(w), room=2)
        return frozenset(a for a in self.lext(w) if theta.image_of(a) in self.rext(a + w))

    # -- special factors ------------------------------------------------------

    def is_left_special(self, w: str) -> bool:
        return len(self.lext(w)) >= 2

    def is_right_special(self, w: str) -> bool:
        return len(self.rext(w)) >= 2

    def is_bispecial(self, w: str) -> bool:
        return self.is_left_special(w) and self.is_right_special(w)

    def _special_lists(self, n: int) -> tuple[dict[str, int], tuple[str, ...]]:
        """The special factors of length n with their rows, and the bispecial ones."""
        found = self._specials.get(n)
        if found is None:
            # the tables list the factors in level order, so their columns align
            level = self._level(n)
            left = list(map(_several, map(len, self._table("lext", n).values())))
            right = list(map(_several, map(len, self._table("rext", n).values())))
            special = dict(compress(zip(level, count()), map(or_, left, right)))
            found = self._specials[n] = (special, tuple(compress(level, map(and_, left, right))))
        return found

    def special_rows(self, n: int) -> dict[str, int]:
        """The special factors of length n, in level order, each with its row:
        its position in the level, which indexes every column of that order.
        The mapping is the index's own; do not modify it."""
        return self._special_lists(n)[0]

    def bispecials(self, n: int) -> tuple[str, ...]:
        return self._special_lists(n)[1]

    def edge_labels(self, n: int) -> tuple[str, ...]:
        """The edges of the graphs of symmetries of order n, for every group:
        per special factor w of length n and right letter a, in that order, the
        word from the first occurrence of w·a to the next special length-n
        window.  The labels of an order are walked once and kept; the index must
        have no closure additions.  Raises InsufficientPrefixError when a walk
        runs off the text; nothing is kept then, and the next call walks again."""
        found = self._edges.get(n)
        if found is None:
            found = self._edges[n] = self._walk_edges(n)
        return found

    def _walk_edges(self, n: int) -> tuple[str, ...]:
        """The labels :meth:`edge_labels` reads."""
        specials = self.special_rows(n)
        text = self.text
        last = len(text) - n  # the last start of a length-n window
        labels = []
        for w in specials:
            for a in sorted(self.rext(w)):
                q = text.find(w + a)
                p = q + 1
                while p <= last and text[p:p + n] not in specials:
                    p += 1
                if p > last:
                    raise InsufficientPrefixError(
                        f"edge walk from special factor {w!r} with extension {a!r} runs off "
                        "the prefix before reaching another special factor; extend the prefix"
                    )
                labels.append(text[q:p + n])
        return tuple(labels)

    # -- orbit columns --------------------------------------------------------

    def column(self, g: SymmetryMap, n: int) -> tuple[str, ...]:
        """The images under ``g`` of the factors of length n, in level order."""
        self._check_n(n)
        column = self._columns.get((g, n))
        if column is None:
            images = self._level(n)  # the identity's column, and every map's at n = 0
            if n and not g.is_identity():
                images = _cut([g.apply("".join(images))], n)
                if g.antimorphic:
                    images.reverse()
            column = self._columns[g, n] = tuple(images)
        return column

    def representatives(self, group: SymmetryGroup, n: int) -> tuple[str, ...]:
        """Per factor of length n, in level order: the least word of its orbit
        under ``group`` (``group.class_representative``)."""
        return tuple(map(min, zip(*(self.column(g, n) for g in group.elements))))

    def orbits(self, group: SymmetryGroup, n: int, rows) -> list[tuple[str, ...]]:
        """Per row of level n in ``rows``: the orbit of its factor under ``group``,
        sorted (``group.equivalence_class``)."""
        columns = [self.column(g, n) for g in group.elements]
        return [tuple(sorted({column[i] for column in columns})) for i in rows]

    def is_distinguishing(self, group: SymmetryGroup, n: int) -> bool:
        """Whether distinct antimorphisms of ``group`` act distinctly on every
        factor of length n."""
        columns = [self.column(t, n) for t in group.antimorphisms]
        return not any(any(map(eq, a, b)) for a, b in combinations(columns, 2))

    # -- complexities ---------------------------------------------------------

    def complexities(self) -> list[int]:
        return [len(level) + len(self._unmerged.get(n, ())) for n, level in enumerate(self._levels)]

    def theta_palindromes(self, theta: SymmetryMap, n: int) -> tuple[str, ...]:
        """The factors of length n fixed by ``theta``, in level order; kept per
        (theta, n) like the columns, for every subgroup to read."""
        if not theta.antimorphic:
            raise GroupError(f"{theta.name} is not an antimorphism")
        key = theta, n
        found = self._fixed.get(key)
        if found is None:
            column = self.column(theta, n)  # checks n before the level is read
            level = self._level(n)
            found = self._fixed[key] = tuple(compress(level, map(eq, level, column)))
        return found

    def palindromic_complexity(self, theta: SymmetryMap) -> list[int]:
        """P(n) for n = 0..n_max: count of theta-fixed indexed factors."""
        return [len(self.theta_palindromes(theta, n)) for n in range(self.n_max + 1)]

    def complexity(self) -> "ComplexityTable":
        c = self.complexities()
        delta = [c[n + 1] - c[n] for n in range(self.n_max)]
        delta2 = [delta[n + 1] - delta[n] for n in range(self.n_max - 1)]
        p: dict[SymmetryMap, list[int]] = {}
        if self.group is not None:
            for theta in self.group.antimorphisms:
                p[theta] = self.palindromic_complexity(theta)
        return ComplexityTable(n_max=self.n_max, c=c, delta_c=delta, delta2_c=delta2, p_theta=p)


def _cut(images: list[str], n: int) -> list[str]:
    """The ``images`` cut into pieces of n >= 1 letters, in order: of a joined
    level under a map, its images (see the module docstring)."""
    return [image[i:i + n] for image in images for i in range(0, len(image), n)]


@dataclass(frozen=True)
class ComplexityTable:
    """Factor complexity, its first two differences, and palindromic complexities.

    ``c[n]`` covers 0..n_max, ``delta_c[n]`` 0..n_max-1, ``delta2_c[n]``
    0..n_max-2; ``p_theta`` maps each antimorphism of the indexing group to
    its per-length palindrome counts.
    """

    n_max: int
    c: list[int]
    delta_c: list[int]
    delta2_c: list[int]
    p_theta: dict[SymmetryMap, list[int]]

    def to_csv(self) -> str:
        thetas = sorted(self.p_theta, key=lambda t: t.sort_key)
        header = ["n", "C", "dC", "d2C"] + [f"P[{t.name}]" for t in thetas]
        lines = [",".join(header)]
        for n in range(self.n_max - 1):
            row = [str(n), str(self.c[n]), str(self.delta_c[n]), str(self.delta2_c[n])]
            row += [str(self.p_theta[t][n]) for t in thetas]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def stability_check(source: WordSource, length: int, n_max: int) -> bool | None:
    """Compare factor sets of prefix(length) and prefix(2*length).

    Returns True when they agree for all n <= n_max (the indexed language is
    stable under doubling), False when they differ, and None when the source
    cannot produce the doubled prefix (literal words).  Only length n_max is
    compared (see the module docstring).
    """
    bound = source.max_prefix()
    if bound is not None and 2 * length > bound:
        return None
    return _stable_under_doubling(source.prefix(length), source.prefix(2 * length), n_max)


def _stable_under_doubling(short: str, long_: str, n: int) -> bool:
    """Whether ``long_``, which has ``short`` as a prefix, has no length-n factor
    outside those of ``short``; by the module docstring, then none of any
    length <= n."""
    if n > len(short):
        raise IndexRangeError(f"n_max={n} exceeds text length {len(short)}")
    start = len(short) - n + 1  # windows starting before this lie inside short
    seen = {short[i:i + n] for i in range(start)}
    return seen.issuperset(long_[i:i + n] for i in range(start, len(long_) - n + 1))
