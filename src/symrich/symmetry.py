"""Finite groups of morphisms and antimorphisms of a free monoid.

Every map here is a letter permutation, optionally composed with reversal
(the antimorphic case); letterwise permutation and reversal commute, so the
orientation is a single bit.  Groups are tiny (at most a few hundred
elements), so compositions and inverses are fully tabulated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import GroupError
from .words import Alphabet


@dataclass(frozen=True)
class SymmetryMap:
    """A letter bijection plus an orientation bit.

    ``images[i]`` is the image of ``alphabet.glyphs[i]``.  Applied to a word,
    the map permutes letters and, iff ``antimorphic``, reverses the result.
    """

    alphabet: Alphabet
    images: tuple[str, ...]
    antimorphic: bool
    _table: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        glyphs = self.alphabet.glyphs
        if len(self.images) != len(glyphs):
            raise GroupError(f"map must list one image per glyph of {self.alphabet}")
        if set(self.images) != set(glyphs):
            raise GroupError(f"map {self.images} is not a bijection on {self.alphabet}")
        object.__setattr__(self, "_table", str.maketrans(str(self.alphabet), "".join(self.images)))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "SymmetryMap":
        return cls(alphabet, alphabet.glyphs, antimorphic=False)

    @classmethod
    def reversal(cls, alphabet: Alphabet) -> "SymmetryMap":
        return cls(alphabet, alphabet.glyphs, antimorphic=True)

    @classmethod
    def from_mapping(cls, alphabet: Alphabet, mapping: dict[str, str], antimorphic: bool) -> "SymmetryMap":
        missing = [g for g in alphabet if g not in mapping]
        if missing:
            raise GroupError(f"map does not cover glyphs {missing}")
        foreign = [g for g in mapping if g not in alphabet]
        if foreign:
            raise GroupError(f"map defined on foreign glyphs {foreign}")
        return cls(alphabet, tuple(mapping[g] for g in alphabet), antimorphic)

    @property
    def name(self) -> str:
        """Canonical label, e.g. ``a:10`` for the binary exchange antimorphism."""
        return ("a:" if self.antimorphic else "m:") + "".join(self.images)

    def image_of(self, glyph: str) -> str:
        return self.images[self.alphabet.index(glyph)]

    # the map is immutable, so its closing letters are computed once
    @functools.cached_property
    def closing(self) -> dict[str, str]:
        """pi(c) for every glyph c with pi(pi(c)) == c, where pi is the letter map.

        For an antimorphism theta = (pi, reversal) these are the glyphs that
        can end a nonempty theta-palindrome, each mapped to the glyph that
        palindrome starts with.
        """
        return {c: p for c, p in zip(self.alphabet.glyphs, self.images) if self.image_of(p) == c}

    def translated(self, word: str) -> str:
        """Letterwise image without the antimorphic reversal."""
        return word.translate(self._table)

    def apply(self, word: str) -> str:
        out = word.translate(self._table)
        return out[::-1] if self.antimorphic else out

    def compose(self, other: "SymmetryMap") -> "SymmetryMap":
        """Map acting as ``self`` after ``other`` (``other`` is applied first)."""
        if other.alphabet != self.alphabet:
            raise GroupError("cannot compose maps over different alphabets")
        images = tuple(img.translate(self._table) for img in other.images)
        return SymmetryMap(self.alphabet, images, self.antimorphic != other.antimorphic)

    def inverse(self) -> "SymmetryMap":
        inv = [""] * len(self.images)
        for src, dst in zip(self.alphabet.glyphs, self.images):
            inv[self.alphabet.index(dst)] = src
        return SymmetryMap(self.alphabet, tuple(inv), self.antimorphic)

    def is_identity(self) -> bool:
        return not self.antimorphic and self.images == self.alphabet.glyphs

    def is_involution(self) -> bool:
        return self.compose(self).is_identity()

    @property
    def sort_key(self) -> tuple:
        return (self.antimorphic, self.images)

    def __str__(self) -> str:
        return self.name


class SymmetryGroup:
    """A composition-closed set of symmetry maps with identity and inverses.

    Instances are immutable once built.  The canonical element order is
    morphisms before antimorphisms, each block sorted by image tuple; the
    identity comes first only when the alphabet's glyphs are in sorted order.
    """

    def __init__(self, elements: tuple[SymmetryMap, ...]):
        if not elements:
            raise GroupError("a group needs at least the identity")
        alphabet = elements[0].alphabet
        if any(e.alphabet != alphabet for e in elements):
            raise GroupError("group elements must share one alphabet")
        ordered = tuple(sorted(set(elements), key=lambda e: e.sort_key))
        self.alphabet = alphabet
        self.elements = ordered
        self._index = {e: i for i, e in enumerate(ordered)}
        self._validate_and_tabulate()
        self.morphisms = tuple(e for e in ordered if not e.antimorphic)
        self.antimorphisms = tuple(e for e in ordered if e.antimorphic)
        self.involutive_antimorphisms = tuple(e for e in self.antimorphisms if e.is_involution())

    def _validate_and_tabulate(self) -> None:
        self.identity = SymmetryMap.identity(self.alphabet)
        if self.identity not in self._index:
            raise GroupError("element set does not contain the identity")
        self._cayley: dict[tuple[SymmetryMap, SymmetryMap], SymmetryMap] = {}
        self._inverse: dict[SymmetryMap, SymmetryMap] = {}
        for f in self.elements:
            for g in self.elements:
                h = f.compose(g)
                if h not in self._index:
                    raise GroupError(f"element set not closed under composition: {f} * {g} = {h}")
                self._cayley[(f, g)] = h
                if h.is_identity():
                    self._inverse.setdefault(f, g)
        missing = [e for e in self.elements if e not in self._inverse]
        if missing:
            raise GroupError(f"elements without inverses: {[e.name for e in missing]}")

    @classmethod
    def close(cls, generators) -> "SymmetryGroup":
        """Smallest group containing the generators (plus identity and inverses)."""
        gens = list(generators)
        if not gens:
            raise GroupError("need at least one generator")
        return cls(tuple(_generate(SymmetryMap.identity(gens[0].alphabet), gens, SymmetryMap.compose)))

    # -- basic container behaviour ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element: SymmetryMap) -> bool:
        return element in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, SymmetryGroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"SymmetryGroup({', '.join(e.name for e in self.elements)})"

    # -- group structure ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def has_antimorphism(self) -> bool:
        """Requirement for all richness analyses; groups of morphisms only are flagged."""
        return bool(self.antimorphisms)

    def compose(self, f: SymmetryMap, g: SymmetryMap) -> SymmetryMap:
        return self._cayley[(f, g)]

    def inverse(self, f: SymmetryMap) -> SymmetryMap:
        return self._inverse[f]

    def is_abelian(self) -> bool:
        return all(
            self._cayley[(f, g)] == self._cayley[(g, f)]
            for f, g in itertools.combinations(self.elements, 2)
        )

    def is_involutively_generated(self) -> bool:
        """True iff the involutive antimorphisms generate the whole group."""
        if not self.involutive_antimorphisms:
            return False
        return len(self._generated(self.involutive_antimorphisms)) == self.order

    def _generated(self, generators) -> frozenset[SymmetryMap]:
        """The elements of the subgroup generated by ``generators``, read off the
        composition table."""
        return frozenset(_generate(self.identity, generators, self.compose))

    def subgroups(self) -> list["SymmetryGroup"]:
        """All subgroups, ordered by (order, element names); includes trivial and full."""
        trivial = frozenset([self.identity])
        seen = {trivial}
        queue = [trivial]
        while queue:
            base = queue.pop()
            for extra in self.elements:
                if extra in base:
                    continue
                bigger = self._generated(base | {extra})
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
        groups = [SymmetryGroup(tuple(elems)) for elems in seen]
        groups.sort(key=lambda g: (g.order, tuple(e.name for e in g.elements)))
        return groups

    # -- action on words ----------------------------------------------------------

    def equivalence_class(self, word: str) -> tuple[str, ...]:
        """The orbit of ``word``, deduplicated and sorted."""
        return tuple(sorted({e.apply(word) for e in self.elements}))

    def class_representative(self, word: str) -> str:
        return min(e.apply(word) for e in self.elements)

    def antimorphic_fixers(self, word: str) -> tuple[SymmetryMap, ...]:
        return tuple(t for t in self.antimorphisms if t.apply(word) == word)

    def is_g_palindrome(self, word: str) -> bool:
        """Whether some antimorphism of the group fixes the word (ε always qualifies
        when an antimorphism exists)."""
        return any(t.apply(word) == word for t in self.antimorphisms)

    def letter_classes(self) -> dict[str, frozenset[str]]:
        """Per letter: its orbit under the group."""
        return dict(self._letter_classes)

    def letter_fixed(self) -> dict[str, bool]:
        """Per letter: is it fixed by some antimorphism of the group."""
        return dict(self._letter_fixed)

    # the group is immutable, so both letter maps are computed once
    @functools.cached_property
    def _letter_classes(self) -> dict[str, frozenset[str]]:
        return {g: frozenset(self.equivalence_class(g)) for g in self.alphabet}

    @functools.cached_property
    def _letter_fixed(self) -> dict[str, bool]:
        return {
            g: any(t.image_of(g) == g for t in self.antimorphisms)
            for g in self.alphabet
        }

    @functools.cached_property
    def palindrome_tables(self) -> "PalindromeTables":
        """The group data of the orbit links between palindrome trees, built once."""
        return PalindromeTables.of(self)

    def is_distinguishing(self, factors) -> bool:
        """Whether distinct antimorphisms act distinctly on every given factor.

        The factors must be nonempty and share one length.
        """
        factors = list(factors)
        if not factors:
            raise GroupError("distinguishing test needs a nonempty factor set")
        n = len(factors[0])
        if any(len(w) != n for w in factors):
            raise GroupError("distinguishing test needs factors of a single length")
        antims = self.antimorphisms
        if len(antims) <= 1:
            return True
        for w in factors:
            if len({t.apply(w) for t in antims}) < len(antims):
                return False
        return True

    def describe(self) -> str:
        kinds = f"{len(self.morphisms)} morphisms + {len(self.antimorphisms)} antimorphisms"
        return (
            f"group of order {self.order} on alphabet {self.alphabet} ({kinds}); "
            f"abelian={self.is_abelian()}, "
            f"involutive antimorphisms={[e.name for e in self.involutive_antimorphisms]}, "
            f"involutively generated={self.is_involutively_generated()}"
        )


def _generate(identity: SymmetryMap, generators, compose) -> set[SymmetryMap]:
    """The closure of {identity} under left multiplication by the generators,
    with ``compose(g, f)`` acting as g after f.  In a finite group a set closed
    under multiplication by the generators is the group they generate, since
    every inverse is a positive power."""
    found = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for f in frontier:
            for g in generators:
                h = compose(g, f)
                if h not in found:
                    found.add(h)
                    nxt.append(h)
        frontier = nxt
    return found


@dataclass(frozen=True)
class PalindromeTables:
    """What the per-antimorphism palindrome trees of a group need from it.

    ``palindromes._palindrome_scan`` grows one tree per antimorphism theta_t
    (the t-th of ``group.antimorphisms``) and links each node P, for every
    element g_j (the j-th of ``group.elements``), to the node of its image
    g_j(P), which is fixed by g_j theta_t g_j^-1.  P is fixed by theta_t, so
    all members g theta_t^k of a left coset g<theta_t> map P to one node, and
    the scan looks that node up once per coset.  These tables depend only on
    the group:

    * ``order`` is |G|, the width of a node's image row;
    * ``closing[t]`` is ``theta_t.closing``;
    * ``cosets[t][c]``, for c in ``closing[t]``, lists per left coset of
      <theta_t> the tuple (r, d, members, inverses): the position r of its
      first member, the last letter d of g_r(u) for every theta_t-palindrome
      u ending in c (sigma(c) for a morphism g_r with letter map sigma,
      sigma(pi_t(c)) for an antimorphism; every member gives the same), the
      positions of its members and the positions of their inverses;
    * ``root_images`` are the image rows of the trees' roots, flat and in the
      node numbering of the scan: node 2t is the imaginary root of tree t and
      node 2t + 1 its empty word, whose images are the roots of the tree of
      g_j theta_t g_j^-1; node 2T (T trees) stands for an image that never
      occurs, so its images are itself.
    """

    order: int
    closing: tuple[dict[str, str], ...]
    cosets: tuple[dict[str, tuple[tuple, ...]], ...]
    root_images: tuple[int, ...]

    @classmethod
    def of(cls, group: SymmetryGroup) -> "PalindromeTables":
        elements, antims = group.elements, group.antimorphisms
        position = {g: j for j, g in enumerate(elements)}
        tree_of = {t: k for k, t in enumerate(antims)}
        cosets = []
        root_images: list[int] = []
        for t in antims:
            powers = [group.identity]
            while not (power := group.compose(t, powers[-1])).is_identity():
                powers.append(power)
            by_letter: dict[str, list] = {c: [] for c in t.closing}
            covered: set[SymmetryMap] = set()
            for g in elements:
                if g in covered:
                    continue
                coset = [group.compose(g, h) for h in powers]
                covered.update(coset)
                members = tuple(position[m] for m in coset)
                inverses = tuple(position[group.inverse(m)] for m in coset)
                for c, p in t.closing.items():
                    by_letter[c].append((position[g], g.image_of(p if g.antimorphic else c), members, inverses))
            cosets.append({c: tuple(entries) for c, entries in by_letter.items()})
            targets = [tree_of[group.compose(g, group.compose(t, group.inverse(g)))] for g in elements]
            root_images += [2 * u for u in targets] + [2 * u + 1 for u in targets]
        root_images += [2 * len(antims)] * len(elements)
        return cls(
            order=len(elements),
            closing=tuple(t.closing for t in antims),
            cosets=tuple(cosets),
            root_images=tuple(root_images),
        )


def reversal_group(alphabet: Alphabet) -> SymmetryGroup:
    """{identity, reversal} on ``alphabet``."""
    return SymmetryGroup.close([SymmetryMap.reversal(alphabet)])


def dihedral_group(m: int) -> SymmetryGroup:
    """The 2m-element group on the cyclic alphabet 0..m-1.

    Morphisms shift letters by a constant, antimorphisms send l to (c - l) mod m.
    For m = 1 this degenerates to {identity, reversal} on a single letter.
    """
    if m < 1:
        raise GroupError(f"need m >= 1, got {m}")
    alphabet = Alphabet.from_size(m)
    glyphs = alphabet.glyphs
    elements = []
    for c in range(m):
        elements.append(SymmetryMap(alphabet, tuple(glyphs[(i + c) % m] for i in range(m)), False))
        elements.append(SymmetryMap(alphabet, tuple(glyphs[(c - i) % m] for i in range(m)), True))
    return SymmetryGroup(tuple(set(elements)))
