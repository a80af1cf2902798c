"""Generalized palindromic analysis of concrete finite words.

Everything here is phrased for a symmetry group G: a word is a G-palindrome
when some antimorphism of G fixes it, an occurrence of w is a G-occurrence
when any orbit member of w occurs there, and the G-defect of w measures how
far w falls short of the maximal number of palindromic orbit classes.

The empty word occurs at every position 0..|v| of a word v, so it is
G-unioccurrent only in the empty word itself.

Every longest-palindromic-suffix query (:func:`g_lps`, :func:`theta_lps`,
:func:`defect_profile`, :func:`prefix_palindrome_table`) runs on one engine,
:func:`_palindrome_scan`: one eertree (Rubinchik & Shur) per antimorphism of
the group, whose nodes are the distinct theta-palindromic factors, plus
links from each node to the nodes of its orbit images in the other trees.
The G-lps of a prefix is the longest of the per-tree lps, and it is
G-unioccurrent iff its node is new there and no orbit image is older, the
group form of the rule of Droubay, Justin & Pirillo.  A whole profile thus
takes time linear in |w| * |G|.  The quadratic routines kept here
(:func:`g_defect`, :func:`classical_palindromes`,
:func:`theta_palindromic_factors`, :func:`theta_richness`) are brute-force
oracles for tests and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, GroupError, SourceError
from .symmetry import SymmetryGroup, SymmetryMap

# -- occurrences ------------------------------------------------------------------


def _find_all(text: str, pattern: str, end: int | None = None) -> list[int]:
    """All (overlapping) start positions of pattern within text[0:end]."""
    if end is None:
        end = len(text)
    out = []
    i = text.find(pattern, 0, end)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1, end)
    return out


def g_occurrences(group: SymmetryGroup, word: str, text: str) -> list[int]:
    """Sorted positions where any orbit member of ``word`` occurs in ``text``."""
    if len(word) > len(text):
        raise SourceError(f"factor of length {len(word)} cannot occur in text of length {len(text)}")
    if word == "":
        return list(range(len(text) + 1))
    positions: set[int] = set()
    for member in group.equivalence_class(word):
        positions.update(_find_all(text, member))
    return sorted(positions)


def is_g_unioccurrent(group: SymmetryGroup, word: str, text: str) -> bool:
    """``word`` itself occurs and its orbit has exactly one occurrence in ``text``."""
    if word == "":
        return text == ""
    if text.find(word) == -1:
        return False
    return len(g_occurrences(group, word, text)) == 1


def complete_g_return_words(group: SymmetryGroup, word: str, text: str) -> frozenset[str]:
    """All complete return words of the orbit of ``word`` inside ``text``.

    These are the stretches between consecutive G-occurrences, including both
    bounding orbit members; duplicates collapse since the result is a set.
    """
    if not word:
        raise SourceError("return words are only defined for nonempty factors")
    occ = g_occurrences(group, word, text)
    n = len(word)
    return frozenset(text[i:j + n] for i, j in zip(occ, occ[1:]))


# -- longest palindromic suffix ----------------------------------------------------


def _suffix_fixed(word: str, translated: str, start: int, end: int) -> bool:
    """Is word[start:end] fixed by the antimorphism whose letterwise image is ``translated``."""
    return (
        word[start] == translated[end - 1]
        and word[end - 1] == translated[start]
        and word[start:end] == translated[start:end][::-1]
    )


@dataclass(frozen=True)
class _Scan:
    """What one pass of :func:`_palindrome_scan` reports, per prefix length i.

    ``lps[i]`` is the length of the longest G-palindromic suffix of
    ``word[:i]``; ``unioccurrent[i]`` says whether that suffix is nonempty and
    G-unioccurrent in ``word[:i]`` (only filled when a group is given);
    ``counts[t][i]`` is the number of distinct factors of ``word[:i]`` fixed
    by the t-th antimorphism, the empty word included.
    """

    lps: list[int]
    unioccurrent: list[bool]
    counts: list[list[int]]


def _palindrome_scan(word: str, antimorphisms, group: SymmetryGroup | None = None) -> _Scan:
    """One eertree per antimorphism over ``word``, with orbit-image links.

    The tree of theta = (pi, reversal) holds one node per distinct nonempty
    theta-palindromic factor, plus two roots: an imaginary node of length -1
    and the empty word.  Node X is extended at prefix length i + 1 by the
    letter c = word[i] when word[k] == pi(c) and c == pi(word[k]) with
    k = i - |X| - 1; the second test matters only when theta is not an
    involution.  The imaginary root passes only when pi(c) == c, and when even
    it fails the theta-lps is the empty word (the suffix-link search falls
    back to the empty node in the same way).  A node is created exactly when
    its palindrome first occurs, and it is then the theta-lps of that prefix.

    With a group (whose antimorphisms must be ``antimorphisms``), node P of
    the tree of theta is linked, for every element g, to node g(P) of the
    tree of g theta g^-1: the image of pi(c) X c is the child of
    image(X, g) along sigma(c) for a morphism g with letter map sigma, and
    along sigma(pi(c)) for an antimorphism.  The trees are grown one after
    another over the whole word, and both directions of a link are set when
    the second of its two nodes is made.  A node is born at the prefix
    length where its palindrome first occurs, so the G-lps of ``word[:i]`` is
    G-unioccurrent iff its node was born at i and no orbit image was born
    earlier.  Time and space are linear in |word| * |G|.
    """
    antims = tuple(antimorphisms)
    n = len(word)
    if not antims:
        return _Scan([0] * (n + 1), [False] * (n + 1), [])
    letters = "".join(sorted(set(word)))
    # pi(c) for every letter c whose theta-palindromes can end in c, i.e. pi(pi(c)) == c
    closing = [
        {c: p for c, p, q in zip(letters, t.translated(letters), t.translated(t.translated(letters)))
         if q == c}
        for t in antims
    ]

    length: list[int] = []
    link: list[int] = []
    born: list[int] = []
    edges: list[dict[str, int]] = []
    image: list[list[int]] = []
    for t in range(len(antims)):  # node 2t is the imaginary root of tree t, 2t + 1 its empty word
        length += [-1, 0]
        link += [2 * t, 2 * t]
        born += [0, 0]
        edges += [{}, {}]
    # stands for an image that never occurs: it is born after the word ends and has no children
    absent = len(length)
    length.append(0)
    link.append(absent)
    born.append(n + 1)
    edges.append({})

    if group is not None:
        elements = group.elements
        position = {g: j for j, g in enumerate(elements)}
        back = [position[group.inverse(g)] for g in elements]
        # targets[t][j]: tree of g theta_t g^-1, found by its letterwise images of the
        # glyphs, as g theta_t g^-1 sends sigma(y) to sigma(pi(y));
        # steps[t][j][c]: edge letter of the image of a node whose last letter is c
        glyphs = "".join(group.alphabet.glyphs)
        pis = [t.translated(glyphs) for t in antims]
        tree_of = {pi: k for k, pi in enumerate(pis)}
        targets = [
            [tree_of[glyphs.translate(str.maketrans(g.translated(glyphs), g.translated(pi)))]
             for g in elements]
            for pi in pis
        ]
        steps = [
            [dict(zip(close, g.translated("".join(close.values() if g.antimorphic else close))))
             for g in elements]
            for close in closing
        ]
        for t in range(len(antims)):
            image.append([2 * u for u in targets[t]])
            image.append([2 * u + 1 for u in targets[t]])
        image.append([absent] * len(elements))

    nodes_by_tree: list[list[int]] = []
    counts: list[list[int]] = []
    for t, close in enumerate(closing):
        root, empty = 2 * t, 2 * t + 1
        cur = empty
        nodes = [empty]
        count = [1]
        created = 1
        for i, c in enumerate(word):
            p = close.get(c)
            if p is None:
                cur = empty
            else:
                x = cur
                while x != root and not (length[x] < i and word[i - length[x] - 1] == p):
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
                            while y != root and not (length[y] < i and word[i - length[y] - 1] == p):
                                y = link[y]
                            suffix = empty if (y == root and c != p) else edges[y][c]
                        length.append(length[x] + 2)
                        link.append(suffix)
                        born.append(i + 1)
                        edges.append({})
                        edges[x][c] = child
                        created += 1
                        if group is not None:
                            row = [absent] * len(back)
                            image.append(row)
                            for j, step in enumerate(steps[t]):
                                z = edges[image[x][j]].get(step[c], absent)
                                if z != absent:
                                    row[j] = z
                                    image[z][back[j]] = child
                    cur = child
            nodes.append(cur)
            count.append(created)
        nodes_by_tree.append(nodes)
        counts.append(count)

    best = [max(column, key=length.__getitem__) for column in zip(*nodes_by_tree)]
    lps = [length[x] for x in best]
    unioccurrent: list[bool] = []
    if group is not None:
        # the identity's image of a node is the node itself, so the minimum is at most born[x]
        unioccurrent = [
            lps[i] > 0 and min(map(born.__getitem__, image[x])) == i
            for i, x in enumerate(best)
        ]
    return _Scan(lps, unioccurrent, counts)


def g_lps(group: SymmetryGroup, word: str) -> str:
    """Longest suffix of ``word`` fixed by some antimorphism of the group (possibly ε)."""
    return word[len(word) - _palindrome_scan(word, group.antimorphisms).lps[-1]:]


def theta_lps(theta: SymmetryMap, word: str) -> str:
    """Longest suffix fixed by one specific antimorphism."""
    if not theta.antimorphic:
        raise GroupError(f"{theta.name} is not an antimorphism")
    return word[len(word) - _palindrome_scan(word, [theta]).lps[-1]:]


# -- letter classes and gamma ------------------------------------------------------


def gamma_g(group: SymmetryGroup, word: str) -> int:
    """Number of letter orbit classes occurring in ``word`` fixed by no antimorphism."""
    classes = group.letter_classes()
    fixed = group.letter_fixed()
    counted = {classes[a] for a in set(word) if not fixed[a]}
    return len(counted)


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
    return _lacuna_profile(group, word, _palindrome_scan(word, group.antimorphisms, group))


def _lacuna_profile(group: SymmetryGroup, word: str, scan: _Scan) -> DefectProfile:
    """The :func:`defect_profile` of ``word`` from a scan of it under ``group``."""
    if not group.antimorphisms:
        raise GroupError("defect analysis requires a group with an antimorphism")
    letter_class = group.letter_classes()
    letter_fixed = group.letter_fixed()

    defect = [0]
    pal = [1]  # the empty-word class is always present
    gamma = [0]
    lacunas: list[int] = []
    seen_classes: set[frozenset[str]] = set()
    n = len(word)
    unioccurrent = scan.unioccurrent

    for i in range(1, n + 1):
        a = word[i - 1]
        new_class = letter_class[a] not in seen_classes
        seen_classes.add(letter_class[a])

        lps_unioccurrent = unioccurrent[i]
        pal_new = 1 if lps_unioccurrent else 0
        gamma_new = 1 if (new_class and not letter_fixed[a]) else 0
        is_lacuna = (not new_class) and (not lps_unioccurrent)

        pal.append(pal[-1] + pal_new)
        gamma.append(gamma[-1] + gamma_new)
        defect.append(defect[-1] + (1 if is_lacuna else 0))
        if is_lacuna:
            lacunas.append(i)
        if defect[-1] != i + 1 - pal[-1] - gamma[-1]:
            raise ConsistencyError(
                f"defect bookkeeping out of sync at position {i} of {word!r}"
            )

    return DefectProfile(word, tuple(defect), tuple(pal), tuple(gamma), tuple(lacunas), tuple(scan.lps))


def g_defect(group: SymmetryGroup, word: str) -> DefectProfile:
    """Defect profile computed twice: by formula and by lacuna count.

    Brute-force oracle for :func:`defect_profile`.  The formula side
    enumerates palindromic factor classes directly (suffix by suffix,
    quadratic), independent of the lacuna machinery; the two must agree at
    every prefix.  Use :func:`defect_profile` alone for long texts.
    """
    profile = defect_profile(group, word)

    antims = group.antimorphisms
    translations = [t.translated(word) for t in antims]
    letter_class = group.letter_classes()
    letter_fixed = group.letter_fixed()
    pal_reps: set[str] = set()
    gamma_classes: set[frozenset[str]] = set()

    for i in range(1, len(word) + 1):
        for m in range(1, i + 1):
            if any(_suffix_fixed(word, tr, i - m, i) for tr in translations):
                pal_reps.add(group.class_representative(word[i - m:i]))
        a = word[i - 1]
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
                f"defect formula and lacuna count disagree at position {i} of {word!r}: "
                f"formula {formula} (pal {pal_count}, gamma {gamma_count}) vs "
                f"lacunas {profile.defect[i]} (pal {profile.pal_classes[i]}, gamma {profile.gamma[i]})"
            )
    return profile


# -- classical and single-antimorphism richness ------------------------------------


def classical_palindromes(word: str) -> set[str]:
    """Distinct reversal-fixed factors, including the empty word.

    Brute-force oracle: enumerates every factor.
    """
    pals = {""}
    for n in range(1, len(word) + 1):
        for i in range(len(word) - n + 1):
            s = word[i:i + n]
            if s[0] == s[-1] and s == s[::-1]:
                pals.add(s)
    return pals


def theta_palindromic_factors(theta: SymmetryMap, word: str) -> set[str]:
    """Distinct theta-fixed factors of ``word``, including the empty word.

    Brute-force oracle for the theta counts of :func:`prefix_palindrome_table`.
    """
    if not theta.antimorphic:
        raise GroupError(f"{theta.name} is not an antimorphism")
    tr = theta.translated(word)
    pals = {""}
    for n in range(1, len(word) + 1):
        for i in range(len(word) - n + 1):
            if _suffix_fixed(word, tr, i, i + n):
                pals.add(word[i:i + n])
    return pals


@dataclass(frozen=True)
class ClassicalRichness:
    pal_count: int
    is_rich: bool


@dataclass(frozen=True)
class ThetaRichness:
    pal_count: int
    gamma: int
    is_rich: bool


def classical_richness(word: str) -> ClassicalRichness:
    """Whether the word meets the |w| + 1 bound on distinct palindromic factors."""
    count = len(classical_palindromes(word))
    return ClassicalRichness(count, count == len(word) + 1)


def theta_richness(theta: SymmetryMap, word: str) -> ThetaRichness:
    """Richness with respect to one involutive antimorphism.

    Brute-force oracle: counts through :func:`theta_palindromic_factors`.
    """
    if not theta.antimorphic:
        raise GroupError(f"{theta.name} is not an antimorphism")
    if not theta.is_involution():
        raise GroupError(f"{theta.name} is not involutive; theta-richness is undefined")
    count = len(theta_palindromic_factors(theta, word))
    gamma = len({
        frozenset((a, theta.image_of(a)))
        for a in set(word)
        if theta.image_of(a) != a
    })
    return ThetaRichness(count, gamma, count == len(word) + 1 - gamma)


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

    Everything comes from one scan: a theta count is 1 plus the number of
    nodes the theta-eertree has created by that prefix, since a node is
    created exactly when its theta-palindrome first occurs.
    """
    scan = _palindrome_scan(text, group.antimorphisms, group)
    profile = _lacuna_profile(group, text, scan)
    counts = [scan.counts[group.antimorphisms.index(t)] for t in group.involutive_antimorphisms]
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
