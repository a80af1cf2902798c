"""Brute-force oracles for the tests: each enumerates every factor, suffix or
occurrence (found by ``str.find``) and shares no logic with symrich's eertrees
or factor index."""

from collections import namedtuple

from symrich import GroupError
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
