"""Generalized palindromic analysis of concrete finite words.

Everything here is phrased for a symmetry group G: a word is a G-palindrome
when some antimorphism of G fixes it, an occurrence of w is a G-occurrence
when any orbit member of w occurs there (the empty word occurs at every
position 0..|v| of a word v), and the G-defect of w measures how far w falls
short of the maximal number of palindromic orbit classes.

Every longest-palindromic-suffix query (:func:`g_lps`, :func:`defect_profile`,
:func:`prefix_palindrome_table`) runs on one engine in one mode,
:func:`_palindrome_scan`: one eertree (Rubinchik & Shur) per antimorphism of
the group, whose nodes are the distinct theta-palindromic factors, plus
links from each node to the nodes of its orbit images in the other trees.
The G-lps of a prefix is the longest of the per-tree lps, and it is
G-unioccurrent iff its node is new there and no orbit image is older, the
group form of the rule of Droubay, Justin & Pirillo.  A whole profile thus
takes time linear in |w| * |G|.  The image links of all nodes sit in one
flat list, one row of |G| entries per node, and a new node pays one child
lookup per left coset of the subgroup its tree's antimorphism generates,
none for that subgroup itself (the coset rule of
:class:`~symrich.symmetry.PalindromeTables`, built once per group object).

One scan per index, read by every subgroup.  A scan under G serves every
subgroup H of G as well: H's lps is the longest node over the trees of H's
antimorphisms, and its unioccurrence reads only the image columns of H's
elements.  An image node stands for one string, born where that string
first occurs, so which tree holds it does not matter.
:class:`TextPalindromes` holds one scan of a text under one group, and a
:class:`~symrich.index.LanguageIndex` keeps one for its text under its
group, so verifying a text under each of its subgroups scans it once.

The brute-force dual of :func:`defect_profile` runs for every verified group
on a head of its text and in :func:`g_defect` on a whole word.  It shares no
code with the eertrees: a table of the fixed suffixes of every prefix of the
head with the bitmask of the antimorphisms that fix them, found by centre
expansion and quadratic only in the worst case (:func:`_fixed_suffixes`),
built once per text under the indexing group, and a count per group that
reads only its own bits and checks the palindromic classes, gamma and the
defect of every prefix against that group's profile (:func:`_check_dual`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from operator import add, itemgetter, sub

from .errors import ConsistencyError, GroupError
from .symmetry import PalindromeTables, SymmetryGroup

#: prefix length of the quadratic dual defect computation run for every verified group
DEFECT_CROSSCHECK_HEAD = 160

# -- longest palindromic suffix ----------------------------------------------------


@dataclass(frozen=True)
class _Scan:
    """The per-antimorphism eertrees of one pass of :func:`_palindrome_scan`.

    ``ends[t][i]`` is the node of the longest suffix of ``word[:i]`` fixed by
    the t-th antimorphism.  Per node: ``length`` of its palindrome and the
    prefix length ``born`` where that palindrome first occurs.  The orbit-image
    rows are flat: ``image[width * P + j]`` is the node of g_j(P), with
    ``width`` = |G|.  The nodes made in tree t are ``first[t]`` ..
    ``first[t + 1] - 1``, in order of birth.
    """

    length: list[int]
    born: list[int]
    image: list[int]
    width: int
    ends: list[list[int]]
    first: list[int]


def _palindrome_scan(word: str, tables: PalindromeTables) -> _Scan:
    """One eertree per antimorphism of a group over ``word``, with orbit-image links.

    ``tables`` are the group's :attr:`SymmetryGroup.palindrome_tables`, and
    every glyph of ``word`` must belong to the group's alphabet.  The tree of
    theta = (pi, reversal) holds one node per distinct nonempty
    theta-palindromic factor, plus two roots: an imaginary node of length -1
    and the empty word.  Node X is extended at prefix length i + 1 by the
    letter c = word[i] when word[k] == pi(c) and c == pi(word[k]) with
    k = i - |X| - 1; the second test matters only when theta is not an
    involution.  The imaginary root passes only when pi(c) == c, and when even
    it fails the theta-lps is the empty word (the suffix-link search falls
    back to the empty node in the same way).  A node is created exactly when
    its palindrome first occurs, and it is then the theta-lps of that prefix.

    Node P of the tree of theta is linked, for every element g, to node g(P)
    of the tree of g theta g^-1: the image of pi(c) X c is the child of
    image(X, g) along sigma(c) for a morphism g with letter map sigma, and
    along sigma(pi(c)) for an antimorphism.  By the coset rule of
    :class:`PalindromeTables` that child is looked up once per left coset of
    <theta> but <theta>, whose members fix P, and written to the row entries
    of its members, the back-links to those of their inverses.  The trees are
    grown one after another over the whole word, and both directions of a
    link are set when the second of its two nodes is made.  A node is born
    where its palindrome first occurs, so the G-lps of ``word[:i]`` is
    G-unioccurrent iff its node was born at i and no orbit image earlier.
    Time and space are linear in |word| * |G|.
    """
    n = len(word)
    trees = len(tables.closing)
    width = tables.order
    length = [-1, 0] * trees
    link = [2 * (k // 2) for k in range(2 * trees)]  # both roots fall back to the imaginary one
    born = [0] * (2 * trees)
    # node 2 * trees stands for an image that never occurs: born after the word ends, no children
    absent = len(length)
    length.append(0)
    link.append(absent)
    born.append(n + 1)
    edges: list[dict[str, int]] = [{} for _ in range(absent + 1)]
    image = list(tables.root_images)
    absent_row = [absent] * width

    # padded[k + 1] is word[k] and padded[0] no glyph: a suffix that starts the
    # word fails the extension test without a bounds check
    padded = "\n" + word
    ends: list[list[int]] = []
    first: list[int] = []
    for t, (close, own, cosets) in enumerate(zip(tables.closing, tables.own, tables.cosets)):
        root, empty = 2 * t, 2 * t + 1
        first.append(len(length))
        cur = empty
        nodes = [empty]
        for i, c in enumerate(word):
            p = close.get(c)
            if p is None:
                cur = empty
            else:
                x = cur
                while x != root and padded[i - length[x]] != p:
                    x = link[x]
                if x == root and c != p:
                    cur = empty
                else:
                    child = edges[x].get(c)
                    if child is None:
                        child = len(length)
                        if x == root:
                            suffix = empty
                        else:
                            y = link[x]
                            while y != root and padded[i - length[y]] != p:
                                y = link[y]
                            suffix = empty if (y == root and c != p) else edges[y][c]
                        length.append(length[x] + 2)
                        link.append(suffix)
                        born.append(i + 1)
                        edges.append({})
                        edges[x][c] = child
                        row, parent_row = child * width, x * width
                        image += absent_row
                        for j in own:
                            image[row + j] = child
                        for r, d, members, inverses in cosets[c]:
                            z = edges[image[parent_row + r]].get(d, absent)
                            if z != absent:
                                for j in members:
                                    image[row + j] = z
                                back_row = z * width
                                for j in inverses:
                                    image[back_row + j] = child
                    cur = child
            nodes.append(cur)
        ends.append(nodes)
    first.append(len(length))
    return _Scan(length, born, image, width, ends, first)


def g_lps(group: SymmetryGroup, word: str) -> str:
    """Longest suffix of ``word`` fixed by some antimorphism of the group (possibly ε)."""
    group.alphabet.check_word(word)
    scan = _palindrome_scan(word, group.palindrome_tables)
    return word[len(word) - max((scan.length[nodes[-1]] for nodes in scan.ends), default=0):]


# -- defect -------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectProfile:
    """Per-prefix defect data for one word under one group.

    Index i of each array refers to the prefix of length i; lacuna positions
    are 1-based letter indices at which the defect increments.  ``lps[i]`` is
    the length of the longest G-palindromic suffix of the length-i prefix.
    """

    word: str
    defect: tuple[int, ...]
    pal_classes: tuple[int, ...]
    gamma: tuple[int, ...]
    lacunas: tuple[int, ...]
    lps: tuple[int, ...]

    @property
    def final(self) -> int:
        return self.defect[-1]

    @property
    def stabilized(self) -> bool:
        """No lacuna in the second half of the word (heuristic saturation flag)."""
        return not any(pos > len(self.word) // 2 for pos in self.lacunas)


def defect_profile(group: SymmetryGroup, word: str) -> DefectProfile:
    """Incremental defect profile via lacuna counting, in time linear in |word| * |G|.

    Position i is a lacuna iff neither the letter at i nor the longest
    G-palindromic suffix of the length-i prefix is G-unioccurrent there.  The
    lps and its unioccurrence come from one pass of the per-antimorphism
    eertrees and their orbit-image links (:func:`_palindrome_scan`).  The
    palindromic class count and gamma are advanced by the matching case
    analysis and tied to the defect by the identity
    D(i) = i + 1 - #pal_classes(i) - gamma(i), asserted at every step.
    """
    return _lacuna_profile(group, word, _linked_scan(group, word), group)


def _linked_scan(group: SymmetryGroup, word: str) -> _Scan:
    """The scan of ``word`` under ``group``, with orbit-image links."""
    if not group.antimorphisms:
        raise GroupError("defect analysis requires a group with an antimorphism")
    group.alphabet.check_word(word)
    return _palindrome_scan(word, group.palindrome_tables)


def _lacuna_profile(group: SymmetryGroup, word: str, scan: _Scan,
                    within: SymmetryGroup) -> DefectProfile:
    """The :func:`defect_profile` of ``word`` under ``group`` from a linked scan of it
    under ``within``, a group containing ``group`` (or ``group`` itself).

    A subgroup reads the trees of its own antimorphisms and the image columns
    of its elements' positions in ``within`` (see the module docstring); when
    ``within`` is ``group`` every tree and every column is read.
    """
    length, born, image, width = scan.length, scan.born, scan.image, scan.width
    ends, pick = scan.ends, None
    if within != group:
        ends = [ends[within.antimorphisms.index(t)] for t in group.antimorphisms]
        pick = itemgetter(*(within.elements.index(g) for g in group.elements))
    # per prefix length, the node of the longest G-palindromic suffix; on equal
    # lengths the earlier tree's node is kept (both nodes are the same string)
    best = ends[0]
    for nodes in ends[1:]:
        best = [b if length[b] >= length[e] else e for b, e in zip(best, nodes)]
    letter_class = group.letter_classes
    letter_fixed = group.letter_fixed

    n = len(word)
    pal_steps = [1] + [0] * n  # the empty-word class is always present
    gamma_steps = [0] * (n + 1)
    lacuna_steps = [0] * (n + 1)
    seen: set[str] = set()  # the letters of the classes met so far
    for i, a in enumerate(word, 1):
        # a node born at i > 0 is a nonempty palindrome; the identity's image of a
        # node is the node itself, so the minimum over its images is at most i
        x = best[i]
        lps_unioccurrent = False
        if born[x] == i:
            images = image[x * width:(x + 1) * width]
            if pick is not None:
                images = pick(images)
            lps_unioccurrent = min(map(born.__getitem__, images)) == i
        if lps_unioccurrent:
            pal_steps[i] = 1
        if a not in seen:
            seen.update(letter_class[a])
            if not letter_fixed[a]:
                gamma_steps[i] = 1
        elif not lps_unioccurrent:
            lacuna_steps[i] = 1

    defect = tuple(accumulate(lacuna_steps))
    pal = tuple(accumulate(pal_steps))
    gamma = tuple(accumulate(gamma_steps))
    # D(i) = i + 1 - pal(i) - gamma(i) at every prefix length i
    expected = tuple(map(sub, range(1, n + 2), map(add, pal, gamma)))
    if defect != expected:
        i = next(i for i, (d, e) in enumerate(zip(defect, expected)) if d != e)
        raise ConsistencyError(f"defect bookkeeping out of sync at position {i} of {word!r}")
    lacunas = tuple(compress(range(n + 1), lacuna_steps))
    lps = tuple(map(length.__getitem__, best))
    return DefectProfile(word, defect, pal, gamma, lacunas, lps)


# -- the brute-force dual ------------------------------------------------------------


def _fixed_suffixes(group: SymmetryGroup, word: str) -> list[tuple[tuple[str, int], ...]]:
    """Per prefix length i of ``word``, the suffixes of ``word[:i]`` fixed by some
    antimorphism of ``group`` whose string ends no shorter prefix, longest first,
    each with the bitmask of the antimorphisms that fix it (bit t for the t-th of
    ``group.antimorphisms``); a later occurrence of a string adds no class.

    Brute force by centre expansion, independent of the eertrees: for each
    antimorphism (pi, reversal) and each of the 2|word| - 1 centres,
    ``word[l:r + 1]`` grows while word[l] == pi(word[r]) and word[r] == pi(word[l])
    (both, as pi need not be an involution).  Only fixed factors are visited,
    so the time is quadratic only in the worst case, a word of one letter.
    """
    n = len(word)
    masks = [defaultdict(int) for _ in range(n + 1)]  # per prefix length, start -> bitmask
    for t, theta in enumerate(group.antimorphisms):
        image, bit = theta.translated(word), 1 << t
        for centre in range(2 * n - 1):
            l, r = centre // 2, (centre + 1) // 2
            while l >= 0 and r < n and word[l] == image[r] and word[r] == image[l]:
                masks[r + 1][l] |= bit
                l, r = l - 1, r + 1
    seen: set[str] = set()
    table = []
    for end, fixed in enumerate(masks):
        row = tuple((s, m) for start, m in sorted(fixed.items()) if (s := word[start:end]) not in seen)
        seen.update(s for s, _ in row)  # the strings of one row differ in length
        table.append(row)
    return table


def _check_dual(group: SymmetryGroup, word: str, table: list[tuple[tuple[str, int], ...]],
                profile: DefectProfile, within: SymmetryGroup) -> None:
    """Count the palindromic classes, gamma and the defect of every prefix of
    ``word`` under ``group`` by formula, and check ``profile`` against them.

    ``table`` is the :func:`_fixed_suffixes` of ``word`` under ``within``, a
    group containing ``group`` (or ``group`` itself).  Only the bits of
    ``group``'s antimorphisms are read, and each fixed string costs one class
    representative.  ``profile`` may cover a longer word of which ``word`` is
    a prefix.
    """
    bits = sum(1 << t for t, theta in enumerate(within.antimorphisms) if theta in group)
    letter_class = group.letter_classes
    letter_fixed = group.letter_fixed
    pal_reps: set[str] = set()
    gamma_classes: set[frozenset[str]] = set()
    for i, (a, row) in enumerate(zip(word, table[1:]), 1):
        for s, mask in row:
            if mask & bits:
                pal_reps.add(group.class_representative(s))
        if not letter_fixed[a]:
            gamma_classes.add(letter_class[a])
        pal_count = len(pal_reps) + 1
        gamma_count = len(gamma_classes)
        formula = i + 1 - pal_count - gamma_count
        if (
            formula != profile.defect[i]
            or pal_count != profile.pal_classes[i]
            or gamma_count != profile.gamma[i]
        ):
            raise ConsistencyError(
                f"incremental defect profile disagrees with the dual computation at position {i} "
                f"of {word!r}: formula {formula} (pal {pal_count}, gamma {gamma_count}) vs "
                f"lacunas {profile.defect[i]} (pal {profile.pal_classes[i]}, gamma {profile.gamma[i]})"
            )


def g_defect(group: SymmetryGroup, word: str) -> DefectProfile:
    """Defect profile computed twice: by formula and by lacuna count.

    Brute-force oracle for :func:`defect_profile`.  The formula side finds
    the fixed suffixes of every prefix by centre expansion (quadratic in the
    worst case) and counts the palindromic factor classes directly,
    independent of the lacuna machinery; the two must agree at every prefix.
    Use :func:`defect_profile` alone for long texts.
    """
    profile = defect_profile(group, word)
    _check_dual(group, word, _fixed_suffixes(group, word), profile, group)
    return profile


class TextPalindromes:
    """The linked scan of one text under one group and the brute-force dual
    table of its first ``DEFECT_CROSSCHECK_HEAD`` letters (centre expansion),
    each built on first use; one scan per index, read by every subgroup (see
    the module docstring)."""

    def __init__(self, group: SymmetryGroup, text: str):
        self.group = group
        self.text = text

    @cached_property
    def scan(self) -> _Scan:
        return _linked_scan(self.group, self.text)

    @cached_property
    def head(self) -> list[tuple[tuple[str, int], ...]]:
        return _fixed_suffixes(self.group, self.text[:DEFECT_CROSSCHECK_HEAD])

    def profile(self, group: SymmetryGroup) -> DefectProfile:
        """The :func:`defect_profile` of the text under ``group``, a subgroup of ``self.group``."""
        return _lacuna_profile(group, self.text, self.scan, self.group)

    def check_head(self, group: SymmetryGroup, profile: DefectProfile) -> None:
        """Check ``profile``, the text's profile under ``group``, against the brute-force
        dual at every prefix of the head; raise :class:`ConsistencyError` where they differ."""
        _check_dual(group, self.text[:DEFECT_CROSSCHECK_HEAD], self.head, profile, self.group)


# -- per-prefix palindrome table -----------------------------------------------------


@dataclass(frozen=True)
class PrefixRow:
    n: int
    theta_counts: tuple[int, ...]
    g_lps: str
    d_g: int
    lacuna: bool


def prefix_palindrome_table(group: SymmetryGroup, text: str) -> list[PrefixRow]:
    """Per-prefix palindrome counts for each involutive antimorphism, plus
    the G-lps, the G-defect, and a lacuna flag.

    Everything comes from one scan: a theta count at prefix length i is 1
    plus the number of nodes of the theta-eertree born by i, since a node is
    born exactly where its theta-palindrome first occurs.
    """
    scan = _linked_scan(group, text)
    profile = _lacuna_profile(group, text, scan, group)
    counts = []
    for theta in group.involutive_antimorphisms:
        t = group.antimorphisms.index(theta)
        lo, hi = scan.first[t], scan.first[t + 1]
        counts.append([1 + bisect_right(scan.born, i, lo, hi) - lo for i in range(len(text) + 1)])
    lacuna_set = set(profile.lacunas)
    return [
        PrefixRow(i, tuple(c[i] for c in counts), text[i - profile.lps[i]:i],
                  profile.defect[i], i in lacuna_set)
        for i in range(len(text) + 1)
    ]


def prefix_table_csv(group: SymmetryGroup, text: str) -> str:
    thetas = group.involutive_antimorphisms
    header = ["n"] + [f"pal[{t.name}]" for t in thetas] + ["g_lps", "D_G", "lacuna"]
    lines = [",".join(header)]
    for row in prefix_palindrome_table(group, text):
        cells = [str(row.n)]
        cells += [str(c) for c in row.theta_counts]
        cells += [row.g_lps, str(row.d_g), "1" if row.lacuna else "0"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
