"""Generalized palindromic analysis of concrete finite words.

Everything here is phrased for a symmetry group G: a word is a G-palindrome
when some antimorphism of G fixes it, an occurrence of w is a G-occurrence
when any orbit member of w occurs there, and the G-defect of w measures how
far w falls short of the maximal number of palindromic orbit classes.

The empty word occurs at every position 0..|v| of a word v, so it is
G-unioccurrent only in the empty word itself.
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


def _lps_len(word: str, translations: list[str], end: int) -> int:
    """Length of the longest suffix of ``word[:end]`` fixed by one of the
    antimorphisms whose letterwise images of ``word`` are ``translations``.

    This is the one scan behind every longest-palindromic-suffix query.
    """
    for m in range(end, 0, -1):
        for tr in translations:
            if _suffix_fixed(word, tr, end - m, end):
                return m
    return 0


def g_lps(group: SymmetryGroup, word: str) -> str:
    """Longest suffix of ``word`` fixed by some antimorphism of the group (possibly ε)."""
    n = len(word)
    return word[n - _lps_len(word, [t.translated(word) for t in group.antimorphisms], n):]


def theta_lps(theta: SymmetryMap, word: str) -> str:
    """Longest suffix fixed by one specific antimorphism."""
    if not theta.antimorphic:
        raise GroupError(f"{theta.name} is not an antimorphism")
    n = len(word)
    return word[n - _lps_len(word, [theta.translated(word)], n):]


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
    """Incremental defect profile via lacuna counting.

    Position i is a lacuna iff neither the letter at i nor the longest
    G-palindromic suffix of the length-i prefix is G-unioccurrent there.
    The palindromic class count and gamma are advanced by the matching case
    analysis and tied to the defect by the identity
    D(i) = i + 1 - #pal_classes(i) - gamma(i), asserted at every step.
    """
    antims = group.antimorphisms
    if not antims:
        raise GroupError("defect analysis requires a group with an antimorphism")
    translations = [t.translated(word) for t in antims]
    letter_class = group.letter_classes()
    letter_fixed = group.letter_fixed()

    defect = [0]
    pal = [1]  # the empty-word class is always present
    gamma = [0]
    lps = [0]
    lacunas: list[int] = []
    seen_classes: set[frozenset[str]] = set()
    n = len(word)

    for i in range(1, n + 1):
        a = word[i - 1]
        new_class = letter_class[a] not in seen_classes
        seen_classes.add(letter_class[a])

        lps_len = _lps_len(word, translations, i)
        lps.append(lps_len)

        lps_unioccurrent = False
        if lps_len:
            suffix = word[i - lps_len:i]
            first = min(
                pos
                for member in group.equivalence_class(suffix)
                if (pos := word.find(member, 0, i)) != -1
            )
            lps_unioccurrent = first == i - lps_len

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

    return DefectProfile(word, tuple(defect), tuple(pal), tuple(gamma), tuple(lacunas), tuple(lps))


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

    Counts advance by the longest-palindromic-suffix rule: extending a word
    by one letter adds at most one new theta-palindrome, the theta-lps, and
    it is new iff it does not occur earlier.  Under the group {id, theta}
    every theta-palindrome is its own orbit, so that count is the
    palindromic class count of the defect profile for that group.
    """
    profile = defect_profile(group, text)
    counts = [
        defect_profile(SymmetryGroup.close([t]), text).pal_classes
        for t in group.involutive_antimorphisms
    ]
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
