"""Factor indexing of a finite prefix.

The index sorts the positions 0..|text| of the text once, by their window
``text[i:i + n_max]``.  The sort is stable, so equal windows keep position
order.  Neighbours in that order share a common prefix (lcp), capped at
``n_max`` and at the shorter window; each lcp is found by binary search on
slice equality.  (Kasai's lcp skip does not apply: with windows cut at
``n_max``, equal windows are ordered by position, not by the suffix after
them.)  The factors of length n are then the maximal runs of neighbours with
lcp >= n; a window shorter than n is a run of its own and is skipped.  Each
level maps a factor to its run ``(a, b)`` in the sorted order, so it lists
its factors in lexicographic order, and the occurrences of the factor are
the sorted positions ``order[a:b]``.  Going from level n - 1 to level n only
adds the run boundaries of lcp n - 1, so the levels together cost the number
of factors, not |text| * n_max.

With a group, each level is completed under it: images of its factors that
do not occur join it, in order, with the empty run ``(0, 0)``, so they have
no occurrences, and ``closure_added`` records them (nothing, on a
sufficiently long prefix of a closed word).

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

By (1), the orders whose level closure changes form an upper range, so the
index closes level ``n_max`` first and walks down to the first level that
closure leaves unchanged.  By (2), each completed level holds the length-n
factors of the completed level above it.

Extension sets are read off the level above.  One pass over level n + 1
gives every length-n factor w its left letters (a with a·w at level n + 1)
and its right letters; one pass over level n + 2 gives its bilateral pairs
(a, b) with a·w·b at level n + 2, and Pext_theta(w) is the set of a with
(a, theta(a)) among them.  By (2), every word of level n + 1 or n + 2 lands
on a factor of level n.  Each table is built on the first query at its order
and kept; most factors have one of a few extension sets, and equal sets are
shared.  As the extensions are defined by membership, the classical counting
identities are exact on any finite text:

* sum over L_n of (#Lext - 1) = C(n+1) - C(n), likewise for Rext,
* sum over L_n of b(w) = second difference of C,
* P(n+2) = sum of #Pext over fixed factors of length n, per antimorphism.

:func:`stability_check` compares factor sets at the top order only.  Let u
be a prefix of v and n <= |u|.  If u and v have the same factors of length
n, they have the same factors of every length m <= n: a length-m factor of v
at position p >= n - m is a suffix of the length-n factor at p - (n - m),
and one at p < n - m lies inside the prefix of length n of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .errors import GroupError, IndexRangeError
from .symmetry import SymmetryGroup, SymmetryMap
from .words import WordSource

#: per extension kind: the levels above the factor it reads, and how a word
#: of that level splits into the factor and its extension
_EXTENSIONS = {
    "lext": (1, lambda u: (u[1:], u[0])),
    "rext": (1, lambda u: (u[:-1], u[-1])),
    "bext": (2, lambda u: (u[1:-1], (u[0], u[-1]))),
}


class LanguageIndex:
    """Occurrence and extension data for all factors of a text up to ``n_max``.

    Built on one stable sort of the text's positions by their ``n_max``
    windows (see the module docstring); the factors of each length are runs
    of that order.  Extension queries need room above the factor length:
    Lext/Rext are available for n <= n_max - 1 and Bext/Pext for
    n <= n_max - 2.
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
        windows = [text[i:i + n_max] for i in range(size)]
        order = sorted(range(size), key=windows.__getitem__)
        # cuts[h]: the k whose neighbours order[k - 1], order[k] share exactly h letters
        cuts: list[list[int]] = [[] for _ in range(n_max)]
        for k in range(1, size):
            u, v = windows[order[k - 1]], windows[order[k]]
            if u == v:  # two full windows: they share n_max letters
                continue
            lo, hi = 0, min(len(u), len(v))
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if u[:mid] == v[:mid]:
                    lo = mid
                else:
                    hi = mid - 1
            cuts[lo].append(k)
        self._order = order

        self._levels: list[dict[str, tuple[int, int]]] = [{"": (0, size)}]
        bounds = [0, size]
        for n in range(1, n_max + 1):
            bounds += cuts[n - 1]
            bounds.sort()  # two sorted runs: a linear merge
            level = {}
            for a, b in pairwise(bounds):
                x = order[a]
                if x + n < size:
                    level[text[x:x + n]] = (a, b)
            self._levels.append(level)

        self.closure_added: dict[int, frozenset[str]] = {}
        if group is not None:
            others = [g for g in group.elements if not g.is_identity()]
            # top-order closure lemma: stop at the first level closure leaves unchanged
            for n in range(n_max, 0, -1):
                level = self._levels[n]
                # every factor has length n, so the image of the joined level under g
                # cuts back into the images of the factors (in reverse order for an
                # antimorphism) with no separator
                joined = "".join(level)
                images = [g.apply(joined) for g in others]
                added = {im[i:i + n] for im in images for i in range(0, len(im), n)}.difference(level)
                if not added:
                    break
                self.closure_added[n] = frozenset(added)
                # merged in order; update keeps the sorted key order and restores the runs
                merged = dict.fromkeys(sorted([*level, *added]), (0, 0))
                merged.update(level)
                self._levels[n] = merged

        # (kind, n) -> factor of length n -> its extensions of that kind
        self._tables: dict[tuple[str, int], dict[str, frozenset]] = {}

    # -- basic queries --------------------------------------------------------

    @property
    def g_closed(self) -> bool:
        """True when a group was supplied and closure added no factor."""
        return self.group is not None and not self.closure_added

    def _check_n(self, n: int, *, room: int = 0) -> None:
        if not 0 <= n <= self.n_max - room:
            raise IndexRangeError(
                f"length {n} outside indexed range 0..{self.n_max}"
                + (f" (query needs {room} extra length level(s))" if room else "")
            )

    def factors(self, n: int) -> frozenset[str]:
        self._check_n(n)
        return frozenset(self._levels[n])

    def sorted_factors(self, n: int) -> tuple[str, ...]:
        self._check_n(n)
        return tuple(self._levels[n])

    def is_factor(self, w: str) -> bool:
        self._check_n(len(w))
        return w in self._levels[len(w)]

    def occurrences(self, w: str) -> tuple[int, ...]:
        """Sorted start positions of ``w`` in the text (empty for closure-added factors)."""
        self._check_n(len(w))
        a, b = self._levels[len(w)].get(w, (0, 0))
        return tuple(sorted(self._order[a:b]))

    # -- extensions -----------------------------------------------------------

    def _extensions(self, kind: str, w: str) -> frozenset:
        room, split = _EXTENSIONS[kind]
        n = len(w)
        self._check_n(n, room=room)
        table = self._tables.get((kind, n))
        if table is None:
            found: dict[str, set] = {v: set() for v in self._levels[n]}
            for u in self._levels[n + room]:
                v, x = split(u)
                found[v].add(x)
            sets = {v: frozenset(xs) for v, xs in found.items()}
            shared = {xs: xs for xs in sets.values()}  # one object per distinct set
            table = self._tables[kind, n] = {v: shared[xs] for v, xs in sets.items()}
        if w not in table:
            raise IndexRangeError(f"{w!r} is not an indexed factor")
        return table[w]

    def lext(self, w: str) -> frozenset[str]:
        return self._extensions("lext", w)

    def rext(self, w: str) -> frozenset[str]:
        return self._extensions("rext", w)

    def bext(self, w: str) -> frozenset[tuple[str, str]]:
        return self._extensions("bext", w)

    def bilateral_order(self, w: str) -> int:
        return len(self.bext(w)) - len(self.lext(w)) - len(self.rext(w)) + 1

    def pext(self, theta: SymmetryMap, w: str) -> frozenset[str]:
        """Letters a with a + w + theta(a) again a factor; w must be theta-fixed."""
        if not theta.antimorphic:
            raise GroupError(f"{theta.name} is not an antimorphism")
        if theta.apply(w) != w:
            raise GroupError(f"{w!r} is not fixed by {theta.name}; filter before querying")
        return frozenset(a for a, b in self.bext(w) if theta.image_of(a) == b)

    # -- special factors ------------------------------------------------------

    def is_left_special(self, w: str) -> bool:
        return len(self.lext(w)) >= 2

    def is_right_special(self, w: str) -> bool:
        return len(self.rext(w)) >= 2

    def is_special(self, w: str) -> bool:
        return self.is_left_special(w) or self.is_right_special(w)

    def is_bispecial(self, w: str) -> bool:
        return self.is_left_special(w) and self.is_right_special(w)

    def specials(self, n: int) -> tuple[str, ...]:
        self._check_n(n, room=1)
        return tuple(w for w in self.sorted_factors(n) if self.is_special(w))

    def bispecials(self, n: int) -> tuple[str, ...]:
        self._check_n(n, room=1)
        return tuple(w for w in self.sorted_factors(n) if self.is_bispecial(w))

    # -- complexities ---------------------------------------------------------

    def complexities(self) -> list[int]:
        return [len(level) for level in self._levels]

    def theta_palindromes(self, theta: SymmetryMap, n: int) -> tuple[str, ...]:
        if not theta.antimorphic:
            raise GroupError(f"{theta.name} is not an antimorphism")
        self._check_n(n)
        return tuple(w for w in self.sorted_factors(n) if theta.apply(w) == w)

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
    cannot produce the doubled prefix (literal words).  Only the factors of
    length n_max are compared; the module docstring shows why that suffices
    for a prefix-consistent source.
    """
    bound = source.max_prefix()
    if bound is not None and 2 * length > bound:
        return None
    return _stable_under_doubling(source.prefix(length), source.prefix(2 * length), n_max)


def _stable_under_doubling(short: str, long_: str, n: int) -> bool:
    """Whether ``long_``, which has ``short`` as a prefix, has no length-n factor
    outside those of ``short``; by the top-order lemma of the module docstring,
    then none of any length <= n."""
    if n > len(short):
        raise IndexRangeError(f"n_max={n} exceeds text length {len(short)}")
    start = len(short) - n + 1  # windows starting before this lie inside short
    seen = {short[i:i + n] for i in range(start)}
    return seen.issuperset(long_[i:i + n] for i in range(start, len(long_) - n + 1))
