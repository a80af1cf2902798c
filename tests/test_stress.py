"""Stress runs at long prefix lengths, kept out of the default suite.

Run with ``pytest -m slow``.  They catch faults that only show at scale: the
per-step defect identity, the dual defect head and the complexity identity
chain are all checked inside these runs.
"""

import pytest

from oracles import position_walk_edges, set_union_crw_records
from symrich import LanguageIndex, defect_profile, directed_symmetry_graph, verify
from symrich.presets import BINARY, binary_full_group, fibonacci_source, reversal_group, thue_morse_source
from symrich.verify import RICH, crw_records

pytestmark = pytest.mark.slow


def test_thue_morse_order_four_verify():
    # verify raises ConsistencyError if the dual defect head disagrees with the profile
    report = verify(binary_full_group(), thue_morse_source(), 64000, 60)
    assert report.overall == RICH
    assert report.identity and all(record.holds for record in report.identity)


def test_fibonacci_reversal_defect():
    assert defect_profile(reversal_group(BINARY), fibonacci_source().prefix(64000)).final == 0


def test_thue_morse_index_at_order_62():
    text = thue_morse_source().prefix(64000)
    index = LanguageIndex(text, 62, binary_full_group())
    assert index.g_closed
    for n in (1, 31, 62):
        assert index.factors(n) == {text[i:i + n] for i in range(len(text) - n + 1)}
    specials = index.specials(30)
    assert specials
    for w in specials:
        assert index.occurrences(w) == tuple(i for i in range(len(text) - 29) if text.startswith(w, i))


def test_return_words_at_order_62():
    # the benchmark's deep-index input; its check hashes complexities and TLS only
    text = thue_morse_source().prefix(32000)
    group = binary_full_group()
    index = LanguageIndex(text, 62, group)
    assert index.g_closed
    assert crw_records(group, index, text, 1, 60) == set_union_crw_records(group, index, text, 1, 60)


def test_edge_walk_at_order_62():
    # the benchmark's deep-index input, whose TLS verdicts read these edges
    text = thue_morse_source().prefix(32000)
    group = binary_full_group()
    index = LanguageIndex(text, 62, group)
    for n in range(1, 61):
        assert directed_symmetry_graph(group, index, n).directed_edges == position_walk_edges(group, index, n)
