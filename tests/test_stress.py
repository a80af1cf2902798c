"""Stress runs at long prefix lengths, kept out of the default suite.

Run with ``pytest -m slow``.  They catch faults that only show at scale: the
per-step defect identity, the dual defect head and the complexity identity
chain are all checked inside these runs.
"""

import pytest

from oracles import position_walk_edges, violating_crw_records
from symrich import LanguageIndex, defect_profile, directed_symmetry_graph, g_lps, verify
from symrich.presets import BINARY, binary_full_group, fibonacci_source, reversal_group, thue_morse_source
from symrich.verify import RICH, crw_records

pytestmark = pytest.mark.slow


def test_thue_morse_order_four_verify():
    # verify raises ConsistencyError if the dual defect head disagrees with the profile
    report = verify(binary_full_group(), thue_morse_source(), 64000, 60)
    assert report.overall == RICH
    assert report.identity and all(record.holds for record in report.identity)


def test_thue_morse_order_four_verify_at_1m():
    # the million-letter scale target; no timing is asserted
    report = verify(binary_full_group(), thue_morse_source(), 1_024_000, 60)
    assert report.overall == RICH


def test_fibonacci_reversal_defect():
    assert defect_profile(reversal_group(BINARY), fibonacci_source().prefix(64000)).final == 0


def test_thue_morse_order_four_defect_at_256k():
    text = thue_morse_source().prefix(256000)
    group = binary_full_group()
    profile = defect_profile(group, text)
    assert profile.final == 0
    for i in (k * len(text) // 19 for k in range(20)):
        assert text[i - profile.lps[i]:i] == g_lps(group, text[:i])


def test_thue_morse_index_at_order_62():
    text = thue_morse_source().prefix(64000)
    index = LanguageIndex(text, 62, binary_full_group())
    assert index.g_closed
    for n in (1, 31, 62):
        assert index.factors(n) == {text[i:i + n] for i in range(len(text) - n + 1)}
    specials = index.special_rows(30)
    assert specials
    for w in specials:
        assert index.occurrences(w) == tuple(i for i in range(len(text) - 29) if text.startswith(w, i))


def test_return_words_at_order_62():
    # the benchmark's deep-index input; its check hashes complexities and TLS only
    text = thue_morse_source().prefix(32000)
    group = binary_full_group()
    index = LanguageIndex(text, 62, group)
    assert index.g_closed
    assert crw_records(group, index, text, 1, 60) == violating_crw_records(group, index, text, 1, 60)


def test_edge_walk_at_order_62():
    # the benchmark's deep-index input, whose TLS verdicts read these edges
    text = thue_morse_source().prefix(32000)
    group = binary_full_group()
    index = LanguageIndex(text, 62, group)
    for n in range(1, 61):
        assert directed_symmetry_graph(group, index, n).directed_edges == position_walk_edges(group, index, n)


def test_extension_tables_at_order_62():
    # every extension table of a long prefix against the counting identities,
    # and the specials of three orders against scans of the text
    text = thue_morse_source().prefix(256000)
    index = LanguageIndex(text, 62, binary_full_group())
    assert index.g_closed
    c = index.complexities()
    for n in range(62):
        level = index.sorted_factors(n)
        assert sum(len(index.lext(w)) - 1 for w in level) == c[n + 1] - c[n]
        assert sum(len(index.rext(w)) - 1 for w in level) == c[n + 1] - c[n]
        if n < 61:
            assert sum(map(index.bilateral_order, index.bispecials(n))) == c[n + 2] - 2 * c[n + 1] + c[n]
    for n in (5, 31, 60):
        assert index.special_rows(n)
        for w in index.special_rows(n):
            starts = [i for i in range(len(text) - n + 1) if text.startswith(w, i)]
            assert index.lext(w) == {text[i - 1] for i in starts if i}
            assert index.rext(w) == {text[i + n] for i in starts if i + n < len(text)}
