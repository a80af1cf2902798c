"""Metamorphic properties of whole reports, at sizes no brute-force oracle reaches.

Reversal.  Every map of a group commutes with the reversal R of words, so R
maps the classes of the factors of a text onto those of R(text) and the
G-palindromes onto the G-palindromes, and the complete return words of the
image of a class are the reversals of those of the class.  So the return-word
records of R(w) have as many classes and violations per order as those of w,
and the verdicts of ``verify_text`` agree.  Reversal swaps the head and the
tail of the text, so it sets the two boundary-word branches of
``crw_records`` against each other.
"""

from hypothesis import given, settings

from symrich import InsufficientPrefixError, LanguageIndex, verify_text
from symrich.verify import crw_records
from test_properties import closed_word_st


def per_order(records):
    """Per order: the number of classes with violations and of their violations."""
    counts = {}
    for r in records:
        classes, violations = counts.get(r.n, (0, 0))
        counts[r.n] = classes + 1, violations + len(r.violations)
    return counts


def verdict_facts(group, index):
    """The verdicts, overall verdict and per-order tree-like-structure flags of
    ``verify_text``, or None when an edge walk runs off the text."""
    try:
        report = verify_text(group, index)
    except InsufficientPrefixError:
        return None
    return report.verdicts, report.overall, tuple(v.satisfied for v in report.tls)


class TestReversal:
    @given(case=closed_word_st())
    @settings(max_examples=100, deadline=None)
    def test_reversed_text(self, case):
        group, sub, word, n_max = case
        forward, backward = (LanguageIndex(text, n_max, group) for text in (word, word[::-1]))
        assert forward.g_closed and backward.g_closed
        assert per_order(crw_records(sub, forward, word, 1, n_max)) == per_order(
            crw_records(sub, backward, backward.text, 1, n_max))
        if n_max >= 3:
            facts = verdict_facts(sub, forward), verdict_facts(sub, backward)
            if None not in facts:
                assert facts[0] == facts[1]
