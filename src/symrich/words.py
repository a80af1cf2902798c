"""Alphabets, finite words, and prefix generators for infinite words.

A finite word is a plain Python ``str`` whose characters (glyphs) all belong
to a fixed :class:`Alphabet`.  The empty string is the empty word.  Infinite
words never exist as objects; they are represented by a :class:`WordSource`
that deterministically produces arbitrarily long prefixes.
"""

from __future__ import annotations

import string
import sys
from dataclasses import dataclass, field
from typing import Mapping

from .errors import AlphabetError, SourceError

#: glyph pool used when an alphabet is built from a size only
GLYPH_POOL = string.digits + string.ascii_lowercase

#: letters of a word that an error message quotes before cutting it off
SHOWN_LETTERS = 40


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of pairwise distinct single-character glyphs."""

    glyphs: tuple[str, ...]
    _set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.glyphs:
            raise AlphabetError("alphabet must contain at least one glyph")
        for g in self.glyphs:
            if not (isinstance(g, str) and len(g) == 1 and g.isprintable()):
                raise AlphabetError(f"glyph {g!r} is not a single printable character")
        if len(set(self.glyphs)) != len(self.glyphs):
            raise AlphabetError(f"glyphs are not pairwise distinct: {self.glyphs}")
        object.__setattr__(self, "_set", frozenset(self.glyphs))

    @classmethod
    def from_string(cls, glyphs: str) -> "Alphabet":
        return cls(tuple(glyphs))

    @classmethod
    def from_size(cls, k: int) -> "Alphabet":
        """Alphabet 0..k-1 drawn from digits, then lowercase letters."""
        if not 1 <= k <= len(GLYPH_POOL):
            raise AlphabetError(f"alphabet size {k} outside 1..{len(GLYPH_POOL)}")
        return cls(tuple(GLYPH_POOL[:k]))

    def __len__(self) -> int:
        return len(self.glyphs)

    def __iter__(self):
        return iter(self.glyphs)

    def __contains__(self, glyph: str) -> bool:
        return glyph in self._set

    def index(self, glyph: str) -> int:
        try:
            return self.glyphs.index(glyph)
        except ValueError:
            raise AlphabetError(f"glyph {glyph!r} not in alphabet {''.join(self.glyphs)!r}")

    def check_word(self, word: str) -> str:
        """Return ``word`` unchanged, raising if any glyph is foreign."""
        if self._set.issuperset(word):
            return word
        for i, g in enumerate(word):
            if g not in self._set:
                shown = word if len(word) <= SHOWN_LETTERS else word[:SHOWN_LETTERS] + "..."
                raise AlphabetError(
                    f"glyph {g!r} at position {i} of word {shown!r} is outside alphabet "
                    f"{''.join(self.glyphs)!r}"
                )
        return word

    def __str__(self) -> str:
        return "".join(self.glyphs)


def apply_morphism(rules: Mapping[str, str], word: str) -> str:
    """Concatenate the images of the letters of ``word`` in order."""
    return "".join(rules[g] for g in word)


def check_morphism(alphabet: Alphabet, rules: Mapping[str, str]) -> None:
    """Validate that ``rules`` is a total non-erasing substitution on ``alphabet``.

    Images may be words over a different alphabet; callers that need an
    endomorphism check the image alphabet themselves.
    """
    missing = [g for g in alphabet if g not in rules]
    if missing:
        raise SourceError(f"substitution has no image for glyphs {missing}")
    extra = [g for g in rules if g not in alphabet]
    if extra:
        raise SourceError(f"substitution maps foreign glyphs {extra}")
    erased = [g for g, img in rules.items() if img == ""]
    if erased:
        raise SourceError(f"substitution erases glyphs {erased}")


class WordSource:
    """A deterministic prefix generator for an infinite (or literal) word.

    Subclasses guarantee that ``prefix(a)`` is a prefix of ``prefix(b)``
    whenever ``a <= b``.
    """

    alphabet: Alphabet

    def prefix(self, length: int) -> str:
        raise NotImplementedError

    def max_prefix(self) -> int | None:
        """Longest available prefix, or None when unbounded."""
        return None

    def _check_length(self, length: int) -> None:
        if length < 0:
            raise SourceError(f"prefix length must be nonnegative, got {length}")
        if length > sys.maxsize:
            raise SourceError(f"prefix length {length} exceeds the longest string, {sys.maxsize} letters")
        bound = self.max_prefix()
        if bound is not None and length > bound:
            raise SourceError(f"source only provides {bound} letters, {length} requested")


class FixedPointSource(WordSource):
    """Fixed point of a non-erasing morphism, read from a prolongable seed.

    The image of the seed must start with the seed and be strictly longer,
    so iterating the morphism extends the prefix at every step.
    """

    def __init__(self, alphabet: Alphabet, rules: Mapping[str, str], seed: str):
        check_morphism(alphabet, rules)
        for g, img in rules.items():
            alphabet.check_word(img)
        if len(seed) != 1 or seed not in alphabet:
            raise SourceError(f"seed must be a single alphabet glyph, got {seed!r}")
        img = rules[seed]
        if not img.startswith(seed) or len(img) < 2:
            raise SourceError(
                f"seed {seed!r} is not prolongable: image {img!r} must start with the seed "
                "and have length at least 2"
            )
        self.alphabet = alphabet
        self.rules = dict(rules)
        self.seed = seed

    def prefix(self, length: int) -> str:
        self._check_length(length)
        if length == 0:
            return ""
        # the image of the seed is seed·x, so the fixed point is
        # seed·x·phi(x)·phi^2(x)·...; each block is the image of the one before,
        # and of it only the letters still needed, since no image is empty
        blocks = [self.seed, self.rules[self.seed][1:]]
        size = 1 + len(blocks[1])
        while size < length:
            blocks.append(apply_morphism(self.rules, blocks[-1][:length - size]))
            size += len(blocks[-1])
        return "".join(blocks)[:length]

    def __repr__(self) -> str:
        rules = ", ".join(f"{g}->{img}" for g, img in sorted(self.rules.items()))
        return f"FixedPointSource({rules}; seed {self.seed})"


class DigitSumSource(WordSource):
    """Letter n is the digit sum of n in the given base, reduced mod m.

    Prefixes are built by block substitution: for n = j·b^k + r with j < b
    and r < b^k, s(n) = j + s(r), so the first b^(k+1) letters are b copies
    of the first b^k, the j-th shifted by j mod m (one ``str.translate``
    each, through one of m tables); only the copies the requested length
    reaches are built.  The tests check it against the digit sums
    themselves.
    """

    def __init__(self, base: int, modulus: int):
        if base < 2:
            raise SourceError(f"base must be >= 2, got {base}")
        if modulus < 1:
            raise SourceError(f"modulus must be >= 1, got {modulus}")
        self.base = base
        self.modulus = modulus
        self.alphabet = Alphabet.from_size(modulus)

    def prefix(self, length: int) -> str:
        self._check_length(length)
        glyphs, m = "".join(self.alphabet.glyphs), self.modulus
        shifts = [str.maketrans(glyphs, glyphs[j:] + glyphs[:j]) for j in range(m)]
        block = glyphs[0]
        while len(block) < length:
            copies = min(-(-length // len(block)), self.base)
            block = "".join(block.translate(shifts[j % m]) for j in range(copies))
        return block[:length]

    def __repr__(self) -> str:
        return f"DigitSumSource(base={self.base}, modulus={self.modulus})"


class PeriodicSource(WordSource):
    """Infinite repetition of a fixed nonempty period."""

    def __init__(self, alphabet: Alphabet, period: str):
        if not period:
            raise SourceError("period must be nonempty")
        alphabet.check_word(period)
        self.alphabet = alphabet
        self.period = period

    def prefix(self, length: int) -> str:
        self._check_length(length)
        reps = -(-length // len(self.period))
        return (self.period * reps)[:length]

    def __repr__(self) -> str:
        return f"PeriodicSource({self.period!r})"


class LiteralSource(WordSource):
    """A concrete finite word; prefixes beyond its length are refused."""

    def __init__(self, alphabet: Alphabet, word: str):
        alphabet.check_word(word)
        self.alphabet = alphabet
        self.word = word

    def max_prefix(self) -> int | None:
        return len(self.word)

    def prefix(self, length: int) -> str:
        self._check_length(length)
        return self.word[:length]

    def __repr__(self) -> str:
        shown = self.word if len(self.word) <= 20 else self.word[:17] + "..."
        return f"LiteralSource({shown!r}, length={len(self.word)})"
