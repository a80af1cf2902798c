import dataclasses
import importlib
import logging
from collections import Counter

import pytest

from groups import cyclic4_antimorphism_group
from oracles import complete_g_return_words, g_occurrences, violating_crw_records
from symrich import (
    AlphabetError,
    ConsistencyError,
    GroupError,
    IndexRangeError,
    InsufficientPrefixError,
    LanguageIndex,
    SymrichError,
    defect_sum_check,
    stability_check,
    subgroup_scan,
    verify,
    verify_text,
)
from symrich import palindromes
from symrich.presets import (
    BINARY,
    binary_full_group,
    exchange_group,
    fibonacci_source,
    generalized_thue_morse,
    hexa_group,
    hexa_psi,
    hexa_text,
    octa_source,
    reversal_group,
    thue_morse_source,
)
from symrich.repro import repro_hexa
from symrich.symmetry import SymmetryGroup, dihedral_group
from symrich.verify import (
    ALMOST,
    INCONSISTENT,
    REFUTED,
    RICH,
    CrwRecord,
    _decide,
    _outer_entry,
    complete_return_words,
    crw_records,
    min_distinguishing,
)
from symrich.words import Alphabet, LiteralSource, PeriodicSource, WordSource


def hexa_subgroup(i: int) -> SymmetryGroup:
    """Order-4 subgroup of the hexa group generated by psi_i and psi_(i+1 mod 3)."""
    return SymmetryGroup.close([hexa_psi(i), hexa_psi((i + 1) % 3)])


@pytest.fixture(scope="module")
def tm_rich_report():
    return verify(binary_full_group(), thue_morse_source(), 1000, 16,
                  word_id="tm", group_id="full")


@pytest.fixture(scope="module")
def tm_refuted_report(id_r):
    return verify(id_r, thue_morse_source(), 1000, 16, word_id="tm", group_id="reversal")


class TestVerify:
    def test_rich_run(self, tm_rich_report):
        rep = tm_rich_report
        assert rep.overall == RICH
        assert all(rep.verdicts.values()) and rep.agreement_ok
        assert rep.profile.final == 0
        assert rep.involutively_generated
        assert rep.min_distinguishing_n == 1

    def test_refuted_run(self, tm_refuted_report):
        rep = tm_refuted_report
        assert rep.overall == REFUTED
        assert not any(rep.verdicts.values()) and rep.agreement_ok
        assert not rep.tls[2].satisfied  # order 3
        assert "tls" in rep.witnesses and "order 3" in rep.witnesses["tls"]

    def test_bound_holds_even_when_refuted(self, tm_refuted_report):
        assert tm_refuted_report.bound_ok

    def test_requires_antimorphism(self, monkeypatch):
        from symrich.symmetry import SymmetryGroup, SymmetryMap

        exchange_morphism = SymmetryMap(Alphabet.from_string("01"), ("1", "0"), False)
        morphic_only = SymmetryGroup.close([exchange_morphism])
        built = []
        module = importlib.import_module("symrich.verify")  # the package's ``verify`` is the function
        monkeypatch.setattr(module, "LanguageIndex", lambda *args: built.append(args))
        with pytest.raises(GroupError, match="requires a group containing an antimorphism"):
            verify(morphic_only, thue_morse_source(), 500, 8)
        assert built == []  # refused before any index is built

    def test_prefix_too_short(self, id_r):
        with pytest.raises(InsufficientPrefixError):
            verify(id_r, fibonacci_source(), 10, 9)

    def test_auto_extend_recovers(self, i2_3):
        rep = verify(i2_3, generalized_thue_morse(3, 3), 40, 20, word_id="t33")
        assert rep.overall == RICH
        assert rep.length > 40  # prefix was doubled until stable

    def test_periodic_rich_word(self):
        # alternating word: every graph is loop-only, defect stays zero
        rep = verify(exchange_group(), PeriodicSource(Alphabet.from_string("01"), "01"),
                     300, 10, word_id="alternating")
        assert rep.overall == RICH

    def test_almost_rich_candidate(self):
        # (0011) repeated is closed under the exchange group but not rich for
        # it (only alternating words are); its defect stabilizes at 1, so
        # every characterization fails early and passes from a small order
        src = PeriodicSource(Alphabet.from_string("01"), "0011")
        rep = verify(exchange_group(), src, 300, 10, word_id="per0011")
        assert rep.overall == ALMOST
        assert rep.candidate_threshold == 3
        assert rep.agreement_ok and not any(rep.verdicts.values())
        assert rep.profile.lacunas == (2,)
        assert [v.satisfied for v in rep.tls] == [False] + [True] * 9

    def test_almost_candidate_is_rich_at_its_threshold(self):
        src = PeriodicSource(Alphabet.from_string("01"), "0011")
        rep = verify(exchange_group(), src, 300, 10, threshold=3, word_id="per0011")
        assert rep.overall == RICH
        assert all(rep.verdicts.values())

    def test_report_text_roundtrip(self, tm_rich_report):
        text = tm_rich_report.to_text()
        assert "overall: rich-up-to-nmax" in text
        assert "[data]" in text
        kv = dict(tm_rich_report.to_keyvalues())
        assert kv["overall"] == RICH and kv["verdict.tls"] == "true"


PIN_TEXTS = {
    "per0011-exchange": (lambda: PeriodicSource(Alphabet.from_string("01"), "0011").prefix(300),
                         exchange_group, 10),
    "tm-order4": (lambda: thue_morse_source().prefix(1000), binary_full_group, 16),
    "tm-reversal": (lambda: thue_morse_source().prefix(1000), lambda: reversal_group(BINARY), 16),
    "fib-reversal": (lambda: fibonacci_source().prefix(1000), lambda: reversal_group(BINARY), 16),
    "t33-dihedral3": (lambda: generalized_thue_morse(3, 3).prefix(2000), lambda: dihedral_group(3), 16),
}

#: per threshold: (threshold, the failing verdicts, overall, candidate
#: threshold, agreement, bound), recorded before the verdicts were built from
#: one table of characterizations
PINNED = {
    "per0011-exchange": (
        (1, "tls return-words lps defect complexity bispecial", "almost-rich-candidate", 3, True, True),
        # lps alone fails: it reads a lacuna position, a prefix length, against
        # a threshold of factor orders
        (2, "lps", "inconsistent", 3, False, True),
        (3, "", "rich-up-to-nmax", 3, True, True),
        (4, "", "rich-up-to-nmax", 3, True, True),
        (5, "", "rich-up-to-nmax", 3, True, True),
        (6, "", "rich-up-to-nmax", 3, True, True),
        (7, "", "rich-up-to-nmax", 3, True, True),
        (8, "", "rich-up-to-nmax", 3, True, True),
        (9, "", "rich-up-to-nmax", 3, True, True),
        (10, "", "rich-up-to-nmax", 3, True, True),
    ),
    "tm-order4": (
        (1, "", "rich-up-to-nmax", 1, True, True),
        (2, "", "rich-up-to-nmax", 2, True, True),
        (3, "", "rich-up-to-nmax", 3, True, True),
        (4, "", "rich-up-to-nmax", 4, True, True),
        (5, "", "rich-up-to-nmax", 5, True, True),
        (6, "", "rich-up-to-nmax", 6, True, True),
        (7, "", "rich-up-to-nmax", 7, True, True),
        (8, "", "rich-up-to-nmax", 8, True, True),
        (9, "", "rich-up-to-nmax", 9, True, True),
        (10, "", "rich-up-to-nmax", 10, True, True),
        (11, "", "rich-up-to-nmax", 11, True, True),
        (12, "", "rich-up-to-nmax", 12, True, True),
        (13, "", "rich-up-to-nmax", 13, True, True),
        (14, "", "rich-up-to-nmax", 14, True, True),
        (15, "", "rich-up-to-nmax", 15, True, True),
        (16, "", "rich-up-to-nmax", 16, True, True),
    ),
    "tm-reversal": (
        (1, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (2, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (3, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (4, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (5, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (6, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (7, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (8, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (9, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (10, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (11, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (12, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (13, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (14, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (15, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
        (16, "tls return-words lps defect complexity bispecial", "refuted", None, True, True),
    ),
    "fib-reversal": (
        (1, "", "rich-up-to-nmax", 1, True, True),
        (2, "", "rich-up-to-nmax", 2, True, True),
        (3, "", "rich-up-to-nmax", 3, True, True),
        (4, "", "rich-up-to-nmax", 4, True, True),
        (5, "", "rich-up-to-nmax", 5, True, True),
        (6, "", "rich-up-to-nmax", 6, True, True),
        (7, "", "rich-up-to-nmax", 7, True, True),
        (8, "", "rich-up-to-nmax", 8, True, True),
        (9, "", "rich-up-to-nmax", 9, True, True),
        (10, "", "rich-up-to-nmax", 10, True, True),
        (11, "", "rich-up-to-nmax", 11, True, True),
        (12, "", "rich-up-to-nmax", 12, True, True),
        (13, "", "rich-up-to-nmax", 13, True, True),
        (14, "", "rich-up-to-nmax", 14, True, True),
        (15, "", "rich-up-to-nmax", 15, True, True),
        (16, "", "rich-up-to-nmax", 16, True, True),
    ),
    "t33-dihedral3": (
        (1, "", "rich-up-to-nmax", 1, True, True),
        (2, "", "rich-up-to-nmax", 2, True, True),
        (3, "", "rich-up-to-nmax", 3, True, True),
        (4, "", "rich-up-to-nmax", 4, True, True),
        (5, "", "rich-up-to-nmax", 5, True, True),
        (6, "", "rich-up-to-nmax", 6, True, True),
        (7, "", "rich-up-to-nmax", 7, True, True),
        (8, "", "rich-up-to-nmax", 8, True, True),
        (9, "", "rich-up-to-nmax", 9, True, True),
        (10, "", "rich-up-to-nmax", 10, True, True),
        (11, "", "rich-up-to-nmax", 11, True, True),
        (12, "", "rich-up-to-nmax", 12, True, True),
        (13, "", "rich-up-to-nmax", 13, True, True),
        (14, "", "rich-up-to-nmax", 14, True, True),
        (15, "", "rich-up-to-nmax", 15, True, True),
        (16, "", "rich-up-to-nmax", 16, True, True),
    ),
}


class TestThresholds:
    """Verdicts at every threshold, and the witness rule: a witness is shown
    only beside a failing verdict, and names its first failing entry at or
    above the threshold."""

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_verdicts(self, case):
        text, group, n_max = PIN_TEXTS[case]
        group = group()
        index = LanguageIndex(text(), n_max + 2, group)
        got = []
        for threshold in range(1, n_max + 1):
            rep = verify_text(group, index, threshold=threshold)
            assert list(rep.verdicts) == ["tls", "return-words", "lps", "defect", "complexity",
                                          "bispecial"]
            fails = " ".join(name for name, ok in rep.verdicts.items() if not ok)
            got.append((threshold, fails, rep.overall, rep.candidate_threshold,
                        rep.agreement_ok, rep.bound_ok))
        assert tuple(got) == PINNED[case]

    def test_no_witness_beside_a_passing_verdict(self):
        src = PeriodicSource(Alphabet.from_string("01"), "0011")
        rep = verify(exchange_group(), src, 300, 10, threshold=3, word_id="per0011")
        assert all(rep.verdicts.values()) and rep.witnesses == {}
        assert "  tls          pass\n" in rep.to_text()

    def test_witnesses_name_entries_from_the_threshold(self, id_r):
        rep = verify(id_r, thue_morse_source(), 1000, 16, threshold=10)
        assert rep.overall == REFUTED
        assert rep.witnesses["tls"].startswith("order 10: ")
        assert rep.witnesses["lps"] == "first lacuna at position 10"
        assert rep.witnesses["complexity"] == "order 10: 6 != 4"
        assert rep.witnesses["bispecial"] == "anchor equality at order 10 fails: 6 != 4"
        assert rep.witnesses["defect"] == "defect reaches 212"
        assert rep.witnesses["return-words"].startswith("class [0010110011] ")


class TestContradiction:
    """Every characterization passes under a group that its involutive
    antimorphisms do not generate, which richness would force: the report is
    inconsistent and says why."""

    TEXT = ("all characterizations pass but the group is not generated by its involutive "
            "antimorphisms, which richness would force")

    def test_decide(self):
        highest = dict.fromkeys(["tls", "return-words", "lps", "defect", "complexity", "bispecial"])
        assert _decide(highest, 1, 16, False) == (
            dict.fromkeys(highest, True), True, 1, self.TEXT, INCONSISTENT)
        assert _decide(highest, 1, 16, True) == (dict.fromkeys(highest, True), True, 1, None, RICH)

    def test_report_prints_it(self, tm_rich_report):
        report = dataclasses.replace(tm_rich_report, contradiction=self.TEXT, overall=INCONSISTENT)
        lines = report.to_text().splitlines()
        assert lines[lines.index(f"  CONTRADICTION: {self.TEXT}") + 1] == "  overall: inconsistent"
        assert f"contradiction = {self.TEXT}" in lines and "overall = inconsistent" in lines
        assert "CONTRADICTION" not in tm_rich_report.to_text()


class CountingSource(WordSource):
    """A source that counts the prefixes generated from the one it wraps."""

    def __init__(self, inner: WordSource):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = 0

    def prefix(self, length: int) -> str:
        self.calls += 1
        return self.inner.prefix(length)

    def max_prefix(self) -> int | None:
        return self.inner.max_prefix()

    def __repr__(self) -> str:
        return repr(self.inner)


class BinaryNumeralsSource(WordSource):
    """The binary numerals 0, 1, 10, 11, 100, ... written one after another."""

    alphabet = BINARY

    def prefix(self, length: int) -> str:
        parts, size, k = [], 0, 0
        while size < length:
            parts.append(format(k, "b"))
            size += len(parts[-1])
            k += 1
        return "".join(parts)[:length]


def doubling_oracle(source, length, n_max):
    """The prefix length and stability that verify settles on, found with one
    stability_check per doubling, and how many of those checks generate a
    prefix (at least one, since the prefix itself must be generated)."""
    checks = [stability_check(source, length, n_max + 2)]
    while checks[-1] is False:
        length *= 2
        checks.append(stability_check(source, length, n_max + 2))
    return length, checks[-1], max(1, sum(c is not None for c in checks))


class TestStablePrefix:
    FIB50 = LiteralSource(BINARY, fibonacci_source().prefix(50))

    @pytest.mark.parametrize("group, inner, length, n_max, steps", [
        (binary_full_group(), thue_morse_source(), 1000, 16, 1),  # stable at once
        (dihedral_group(3), generalized_thue_morse(3, 3), 40, 20, 5),  # four doublings
        (reversal_group(BINARY), FIB50, 30, 4, 1),  # bounded: cannot double
        (reversal_group(BINARY), FIB50, 12, 4, 2),  # bounded: one doubling, then stable
        (reversal_group(BINARY), FIB50, 13, 5, 1),  # bounded: one doubling, then out of letters
    ])
    def test_one_prefix_per_stability_step(self, group, inner, length, n_max, steps):
        source = CountingSource(inner)
        report = verify(group, source, length, n_max)
        final, stability, generating = doubling_oracle(inner, length, n_max)
        assert source.calls == generating == steps
        index = LanguageIndex(inner.prefix(final), n_max + 2, group)
        assert report == verify_text(group, index, stability=stability, word_id=repr(inner))

    @pytest.mark.parametrize("group, inner, length, n_max, doubled", [
        (binary_full_group(), thue_morse_source(), 1000, 16, []),  # stable at once
        (dihedral_group(3), generalized_thue_morse(3, 3), 40, 20, [40, 80, 160, 320]),
        (reversal_group(BINARY), FIB50, 13, 5, [13]),  # one doubling, then out of letters
    ])
    def test_each_doubling_is_logged(self, caplog, group, inner, length, n_max, doubled):
        caplog.set_level(logging.INFO, logger="symrich")
        verify(group, inner, length, n_max)
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("symrich", logging.INFO,
             f"prefix doubled from {n} to {2 * n} letters: its factors up to length {n_max + 2} changed")
            for n in doubled
        ]

    def test_repro_ex6_logs_its_doublings(self, caplog):
        caplog.set_level(logging.INFO, logger="symrich")
        report = repro_hexa(60, 20)
        assert report.ok and report.richness.length == 240
        assert [r.getMessage() for r in caplog.records] == [
            "prefix doubled from 60 to 120 letters: its factors up to length 22 changed",
            "prefix doubled from 120 to 240 letters: its factors up to length 22 changed",
        ]

    def test_never_stable_raises_after_six_doublings(self, id_r):
        # factors of length 22 keep appearing in the binary numerals well past 40 * 2^7 letters
        source = CountingSource(BinaryNumeralsSource())
        with pytest.raises(InsufficientPrefixError, match="still change when doubling"):
            verify(id_r, source, 40, 20)
        assert source.calls == 7


class TestNotClosed:
    def test_cyclic4_refused_with_flags(self):
        group = cyclic4_antimorphism_group()
        src = PeriodicSource(Alphabet.from_string("0123"), "0123")
        rep = verify(group, src, 300, 8, word_id="per0123", group_id="cyclic4")
        assert rep.overall == REFUTED
        assert not rep.closed
        assert not rep.involutively_generated
        assert "closure" in rep.witnesses

    def test_binary_word_missing_exchange_images(self):
        # 0^inf is closed under reversal but not under the exchange group
        group = binary_full_group()
        src = PeriodicSource(Alphabet.from_string("01"), "0")
        rep = verify(group, src, 200, 6, word_id="zeros")
        assert rep.overall == REFUTED and not rep.closed


class TestInputChecks:
    TM = thue_morse_source().prefix(200)
    FOREIGN = TM[:99] + "2" + TM[100:]  # letter 100 is outside the binary alphabet

    @pytest.mark.parametrize("stability", [None, True])
    def test_foreign_glyph_rejected_by_verify_text(self, stability):
        group = binary_full_group()
        with pytest.raises(AlphabetError, match="glyph '2' at position 99"):
            verify_text(group, LanguageIndex(self.FOREIGN, 12, group), stability=stability)

    def test_foreign_glyph_rejected_by_subgroup_scan(self):
        with pytest.raises(AlphabetError, match="glyph '2' at position 99"):
            subgroup_scan(LanguageIndex(self.FOREIGN, 12, binary_full_group()))

    def test_threshold_above_n_max_rejected(self, i2_2):
        with pytest.raises(GroupError, match="^threshold must be >= 1, got 0$"):
            verify_text(i2_2, LanguageIndex(self.TM, 12, i2_2), threshold=0, stability=True)
        with pytest.raises(GroupError, match="threshold 11 exceeds n_max=10"):
            verify_text(i2_2, LanguageIndex(self.TM, 12, i2_2), threshold=11, stability=True)
        with pytest.raises(GroupError, match="threshold 11 exceeds n_max=10"):
            verify(i2_2, thue_morse_source(), 200, 10, threshold=11)

    @pytest.mark.parametrize("order", [0, 1])
    def test_index_of_order_below_two(self, i2_2, order):
        index = LanguageIndex(self.TM, order, i2_2)
        with pytest.raises(IndexRangeError, match=f"order {order} .* needs order >= 2"):
            verify_text(i2_2, index, stability=True)

    @pytest.mark.parametrize("index_group", [None, reversal_group(BINARY)])
    def test_index_group_not_containing_the_group(self, i2_2, index_group):
        text = "0001000100010001000"
        index = LanguageIndex(text, 6, index_group)
        with pytest.raises(GroupError, match="does not contain"):
            verify_text(i2_2, index, stability=True)

    def test_index_closure_under_a_larger_group(self, i2_2, id_r):
        # the text is closed under reversal; its closure under i2_2 adds 11, 111, ...
        text = "0001000100010001000"
        index = LanguageIndex(text, 6, i2_2)
        with pytest.raises(GroupError, match="added factors at lengths"):
            verify_text(id_r, index, stability=True)


class TestCrw:
    def test_shape_of_return_words_on_rich_run(self, tm_rich_report):
        # a rich run keeps no record, and every return word of its classes
        # ends with an antimorphic image of its first n + 1 letters
        group = binary_full_group()
        text = thue_morse_source().prefix(tm_rich_report.length)
        index = LanguageIndex(text, tm_rich_report.n_max + 2, group)
        assert tm_rich_report.crw == ()
        for n in range(1, tm_rich_report.n_max + 1):
            for rep in set(index.representatives(group, n)):
                assert all(return_word_shape_ok(group, v, n)
                           for v in complete_return_words(group, text, rep))

    def test_refuted_run_against_the_oracle(self, tm_refuted_report, id_r):
        text = thue_morse_source().prefix(tm_refuted_report.length)
        index = LanguageIndex(text, tm_refuted_report.n_max + 2, id_r)
        expected = violating_crw_records(id_r, index, text, 1, tm_refuted_report.n_max)
        assert expected and list(tm_refuted_report.crw) == expected

    def test_text_other_than_the_indexed_one(self, i2_2):
        text = thue_morse_source().prefix(200)
        index = LanguageIndex(text, 8, i2_2)
        with pytest.raises(SymrichError, match="not the indexed text"):
            crw_records(i2_2, index, "1" + text[1:], 1, 6)
        copy = "".join(list(text))  # the same letters in another object
        assert copy is not text
        assert crw_records(i2_2, index, copy, 1, 6) == crw_records(i2_2, index, text, 1, 6)

    @pytest.mark.parametrize("text, group, n_max", [
        # under reversal, the order-10 return word from position 0 is no palindrome
        ("011001100101100110010011001101001100110110011001011001", binary_full_group(), 15),
        # under {m:012345, a:105432}, the order-2 return word to the end is no G-palindrome
        (hexa_text(24), hexa_group(), 4),
    ])
    def test_boundary_words_of_derived_classes_are_tested(self, text, group, n_max):
        index = LanguageIndex(text, n_max, group)
        assert index.g_closed
        for sub in group.subgroups():
            if sub.has_antimorphism:
                assert crw_records(sub, index, text, 1, n_max) == violating_crw_records(
                    sub, index, text, 1, n_max
                )

    def test_boundary_words_of_a_palindrome(self, derived, id_r):
        # 00 occurs at 0, 6 and 12 and is unique on both sides, so Lemma 1
        # derives its class from the class of its extension word 001 at
        # order 3; its two return words, neither a palindrome, are the return
        # word from 0 and the one to the end
        text = "00101100110100"
        assert text == text[::-1]
        index = LanguageIndex(text, 14, id_r)
        assert index.g_closed
        records = crw_records(id_r, index, text, 1, 12)
        assert records == violating_crw_records(id_r, index, text, 1, 12)
        assert derived["00"] and derived["00"][0] == "001"
        assert CrwRecord(2, "00", ("00101100", "00110100")) in records
        assert text.startswith("00101100") and text.endswith("00110100")

    @pytest.mark.parametrize("text, n_max, record, source", [
        # 010 is bispecial, and order 4 has no violation
        ("10101100100110101", 4, CrwRecord(3, "010", ("010011010", "010110010")), None),
        # 001 is unique on the left only, so Lemma 1 derives it from the class
        # of its extension word 0001, whose representative holds it as r[1:]
        ("00011010001011000", 4, CrwRecord(3, "001", ("00101100", "00110100")), "0001"),
        # 000 is unique on both sides, so Lemma 1 derives it from the class of
        # its extension word 0001, which has violations and holds it as r[:3]
        ("1000110100010110001", 5, CrwRecord(3, "000", ("0001011000", "0001101000")), "0001"),
    ], ids=["bispecial", "lemma-1-shift-1", "lemma-1-through-order-4"])
    def test_candidate_rule(self, derived, id_r, text, n_max, record, source):
        # each class is a candidate by one clause of the rule only: it holds
        # neither the head nor the tail of the palindrome
        index = LanguageIndex(text, n_max, id_r)
        assert index.g_closed and text == text[::-1]
        records = crw_records(id_r, index, text, 1, n_max)
        assert records == violating_crw_records(id_r, index, text, 1, n_max)
        assert record in records and record.representative not in (text[:3], text[-3:])
        assert (derived[record.representative] or (None,))[0] == source

    def test_two_sided_class_with_no_inner_occurrence(self, derived, id_r):
        # 00 is unique on both sides (1·00·1) but occurs only at 0 and at the
        # end, so 1001 is no factor; Lemma 1 derives it from the class of its
        # extension word 001 all the same, and its one return word, the whole
        # text, is no palindrome
        text = "0011011100"
        index = LanguageIndex(text, 4, id_r)
        assert index.g_closed and text != text[::-1]
        assert index.lext("00") == index.rext("00") == {"1"} and "1001" not in index.factors(4)
        records = crw_records(id_r, index, text, 1, 4)
        assert records == violating_crw_records(id_r, index, text, 1, 4)
        assert CrwRecord(2, "00", (text,)) in records
        assert derived["00"] and derived["00"][0] == "001"

    def test_chain_of_lemma_1_sources(self, derived, id_r):
        # every class of (0011)^k from order 4 up is unique on both sides, and
        # so is 00, so order 2 derives from order 3, which derives from order
        # 4, ... and order 299 from the top order 300; every source is clean,
        # so no class below the top but the head's and the tail's is visited
        text = PeriodicSource(BINARY, "0011").prefix(1200)
        index = LanguageIndex(text, 302, id_r)
        records = crw_records(id_r, index, text, 2, 300)
        assert records == violating_crw_records(id_r, index, text, 2, 300) == []
        assert set(derived) == {id_r.class_representative(text[:n]) for n in range(2, 300)} | {
            id_r.class_representative(text[-n:]) for n in range(2, 300)}
        chain, rep = 0, "00"
        while len(rep) < 300 and (source := outer_entries(id_r, index, len(rep))[rep]):
            chain, rep = chain + 1, source[0]
        assert chain == 298 and len(rep) == 300


@pytest.fixture
def derived(monkeypatch):
    """Per class representative that ``crw_records`` visits below its top
    order: what ``_outer_entry`` returned for it."""
    module = importlib.import_module("symrich.verify")
    real, found = module._outer_entry, {}

    def spy(group, index, above, violations, rep):
        found[rep] = result = real(group, index, above, violations, rep)
        return result

    monkeypatch.setattr(module, "_outer_entry", spy)
    return found


def outer_entries(group, index, n, violating=False):
    """Per class representative of order n: what ``_outer_entry`` gives it,
    called on every class with the map of order n + 1 read off the index.
    With ``violating`` every class of order n + 1 counts as one with
    violations, so that every source comes with its shift table."""
    above = dict(zip(index.sorted_factors(n + 1), index.representatives(group, n + 1)))
    found = dict.fromkeys(above.values(), ("",)) if violating else {}
    return {rep: _outer_entry(group, index, above, found, rep)
            for rep in set(index.representatives(group, n))}


@pytest.fixture
def tested(monkeypatch):
    """The words whose G-palindromicity is tested, in order; in ``crw_records``,
    the suspects of every class, filtered by ``non_g_palindromes``."""
    real, found = SymmetryGroup.non_g_palindromes, []

    def spy(self, words):
        words = list(words)
        found.extend(words)
        return real(self, words)

    monkeypatch.setattr(SymmetryGroup, "non_g_palindromes", spy)
    return found


class TestCrwOneSided:
    """Return words of classes special on one side only, derived from order n + 1."""

    def test_extension_word_with_both_shifts(self, i2_2, tm_text, derived):
        # 1001011 is right-unique (right letter 0) and 0010110 left-unique (left
        # letter 1); both extend to 10010110, whose shift set is {0, 1}
        group = exchange_group()
        index = LanguageIndex(tm_text, 10, i2_2)
        records = crw_records(group, index, tm_text, 1, 10)
        assert records == violating_crw_records(group, index, tm_text, 1, 10)
        assert group.equivalence_class("1001011") == ("0010110", "1001011")
        assert index.rext("1001011") == {"0"} and len(index.lext("1001011")) == 2
        assert index.lext("0010110") == {"1"} and len(index.rext("0010110")) == 2
        _, starts, ends = derived["0010110"]
        assert "10010110" in starts and "10010110" in ends  # S = {0, 1}
        # the class occurs at q and q + 1 for each occurrence q of 10010110, so
        # that is a return word, and a G-palindrome, which no strip needs to give
        assert "10010110" in complete_g_return_words(group, "0010110", tm_text)
        assert group.is_g_palindrome("10010110")

    @pytest.mark.parametrize("text, boundary", [
        ("11011001001101", "11011"),  # 110 at 0 is left-unique: no extension word covers it
        (thue_morse_source().prefix(19), "0010110100"),  # 100 at the end is right-unique
    ])
    def test_boundary_word_of_one_sided_class(self, i2_2, id_r, derived, tested, text, boundary):
        # order 3 chains off order 4, the top; the boundary word is a return
        # word of the class nowhere but at the boundary, and a palindrome, so
        # only the suspects show that it is tested
        index = LanguageIndex(text, 4, i2_2)
        assert index.g_closed
        records = crw_records(id_r, index, text, 1, 4)
        suspects = set(tested)
        assert records == violating_crw_records(id_r, index, text, 1, 4)
        rep = id_r.class_representative(boundary[:3])
        assert len(derived[rep][0]) == 4  # derived from order 4
        assert boundary in suspects and id_r.is_g_palindrome(boundary)
        assert boundary in complete_g_return_words(id_r, rep, text)


def doubly_reached(group, text, source, n):
    """The return words (by the oracle) of the class C1 that ``source`` (the
    source of a class of order n under ``group``) names whose consecutive
    occurrences q and q + 1 reach one occurrence q + 1 of a member u twice:
    b'·u at q and u·c' at q + 1."""
    outer, starts, ends = source
    return [v for v in complete_g_return_words(group, outer, text)
            if len(v) == n + 2 and v[:n + 1] in starts and v[1:] in ends]


class TestCrwBelowTop:
    """Classes unique on both sides, at order n_hi - 1 and below: Lemma 1
    derives them from order n + 1, with e = m·c and shift 0, and its strips
    of n letters are G-palindromes."""

    @pytest.mark.parametrize("text, group, rep", [
        (fibonacci_source().prefix(200), reversal_group(BINARY), "0010100"),
        (generalized_thue_morse(3, 3).prefix(200), dihedral_group(3), "0101212"),
        (hexa_text(200), hexa_group(), "0312031"),
    ], ids=["fib-reversal", "t33-dihedral3", "hexa"])
    def test_doubly_reached_member(self, text, group, rep):
        index = LanguageIndex(text, 8, group)
        assert index.g_closed
        records = crw_records(group, index, text, 1, 8)
        assert records == violating_crw_records(group, index, text, 1, 8)
        assert len(index.lext(rep)) == len(index.rext(rep)) == 1
        source = outer_entries(group, index, 7, violating=True)[rep]
        assert source[1] and len(source[0]) == 8  # from order 8
        # C1 occurs at q and q + 1, so the strip of its return word is rep's
        # member u, of 7 letters, which is no return word but a G-palindrome,
        # so never a violation
        reached = doubly_reached(group, text, source, 7)
        assert reached and all(group.is_g_palindrome(v[1:-1]) for v in reached)
        assert all(len(v) > 7 for r in records if r.representative == rep for v in r.violations)

    def test_hexa_every_subgroup(self):
        text = hexa_text(200)
        index = LanguageIndex(text, 8, hexa_group())
        reached = 0
        for sub in hexa_group().subgroups():
            assert crw_records(sub, index, text, 1, 8) == violating_crw_records(sub, index, text, 1, 8)
            reached += any(doubly_reached(sub, text, source, 7)
                           for source in outer_entries(sub, index, 7, violating=True).values()
                           if source)
        assert reached == 10  # of 15 subgroups

    @pytest.mark.parametrize("text, group, index_group", [
        (thue_morse_source().prefix(2000), binary_full_group(), None),
        (fibonacci_source().prefix(500), reversal_group(BINARY), None),
        (generalized_thue_morse(3, 3).prefix(500), dihedral_group(3), None),
        (hexa_text(500), hexa_subgroup(0), hexa_group()),
    ], ids=["tm", "fib", "t33", "hexa-psi0-psi1"])
    def test_every_two_sided_class_gets_a_source(self, text, group, index_group):
        # Lemma 1 at every order below n_hi: the class of m·c at order n + 1
        index = LanguageIndex(text, 20, index_group or group)
        assert index.g_closed
        n_hi = 16
        sources = {}
        for n in range(1, n_hi):
            sources.update(outer_entries(group, index, n))
        two_sided = [rep for rep in sources if len(index.lext(rep)) == len(index.rext(rep)) == 1]
        below = [rep for rep in two_sided if len(rep) == n_hi - 1]
        assert below and all(sources[rep] and len(sources[rep][0]) == n_hi for rep in below)
        assert any(sources[rep] for rep in two_sided if len(rep) < n_hi - 1)
        for rep in two_sided:
            (c,) = index.rext(rep)
            assert sources[rep][0] == group.class_representative(rep + c)

    def test_deep_index_order_59_is_not_sliced(self, monkeypatch):
        text = thue_morse_source().prefix(32000)
        group = binary_full_group()
        index = LanguageIndex(text, 62, group)
        sliced = Counter()
        real = index.occurrences

        def occurrences(w):
            sliced[len(w)] += 1
            return real(w)

        monkeypatch.setattr(index, "occurrences", occurrences)
        crw_records(group, index, text, 1, 60)
        assert sorted(sliced) == [24, 32, 48, 60]
        at_59 = outer_entries(group, index, 59)
        assert sum(len(index.lext(rep)) == len(index.rext(rep)) == 1 for rep in at_59) == 44
        assert all(at_59.values())

    def test_deep_index_visits_only_candidates(self, derived):
        # the benchmark's deep-index input is rich, so below the top order only
        # the classes of the head, the tail and the bispecial factors are visited
        text = thue_morse_source().prefix(32000)
        group = binary_full_group()
        index = LanguageIndex(text, 62, group)
        assert crw_records(group, index, text, 1, 60) == []
        candidates = set()
        for n in range(1, 60):
            rep_of = dict(zip(index.sorted_factors(n), index.representatives(group, n)))
            candidates |= {rep_of[text[:n]], rep_of[text[-n:]], *map(rep_of.get, index.bispecials(n))}
        assert set(derived) == candidates and len(derived) == 64
        assert sum(len(set(index.representatives(group, n))) for n in range(1, 60)) == 1417


class TestCrwWalk:
    """Return words of the classes that Lemma 1 does not derive, by the walk
    of Lemma 2 on the index, and its two ways of falling back to slicing."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Per (order, least member) of each class that tried the walk: the
        return words it found, or None when it fell back to slicing."""
        module = importlib.import_module("symrich.verify")
        real, found = module._walk_returns, {}

        def spy(index, members):
            found[len(members[0]), min(members)] = result = real(index, members)
            return result

        monkeypatch.setattr(module, "_walk_returns", spy)
        return found

    def test_deep_index_classes(self, walks):
        # the benchmark's deep-index input; the bispecial classes of orders 24,
        # 32 and 48 have return words longer than 62 letters, so their walks
        # fall back to slicing (order 48's after 15 words, when its first path
        # reaches 62 letters), and order 60 is the top
        text = thue_morse_source().prefix(32000)
        group = binary_full_group()
        index = LanguageIndex(text, 62, group)
        crw_records(group, index, text, 1, 60)
        walked = {n: rep for (n, rep), found in walks.items() if found is not None}
        assert sorted(walked) == [1, 2, 3, 4, 6, 8, 12, 16]
        assert all(index.is_bispecial(rep) for rep in walked.values())
        assert Counter(n for (n, _), found in walks.items() if found is None) == {
            24: 1, 32: 1, 48: 1,
        }
        for n, rep in walked.items():
            assert walks[n, rep] == complete_g_return_words(group, rep, text)

    def test_walk_that_outgrows_the_index(self, walks):
        # the order-24 bispecial class of Thue-Morse has return words of 32, 48
        # and 80 letters: an index of order 62 cannot hold the longest one
        text = thue_morse_source().prefix(4000)
        group = binary_full_group()
        for n_max, ended in [(62, False), (100, True)]:
            index = LanguageIndex(text, n_max, group)
            assert crw_records(group, index, text, 24, 25) == violating_crw_records(
                group, index, text, 24, 25
            )
            assert (walks[24, "011010011001011001101001"] is not None) is ended

    def test_walk_over_its_budget(self, walks, id_r):
        # the palindrome is closed under reversal; its bispecial class 0 occurs
        # 6 times, and its return word of 12 letters needs 11 visits
        text = "00" + "1" * 10 + "00" + "1" * 10 + "00"
        index = LanguageIndex(text, len(text), id_r)
        assert index.g_closed and index.is_bispecial("0")
        records = crw_records(id_r, index, text, 1, 2)
        assert records == violating_crw_records(id_r, index, text, 1, 2)
        assert walks[1, "0"] is None
        assert (1, "0") not in {(r.n, r.representative) for r in records}
        assert complete_g_return_words(id_r, "0", text) == {"00", "011111111110"}

    def test_index_not_closed_rejected(self, walks, id_r, i2_2):
        # LanguageIndex.check_closed comes before any class is visited: an
        # index built with no group or a smaller one, and one that closure
        # added to; the text is closed under reversal but not under exchange
        text = "0" + "1" * 10 + "0" + "1" * 10 + "0"
        for index_group in (None, id_r):
            with pytest.raises(GroupError, match="does not contain"):
                crw_records(i2_2, LanguageIndex(text, 4, index_group), text, 1, 2)
        index = LanguageIndex(text, 4, i2_2)
        with pytest.raises(InsufficientPrefixError, match=r"^group closure added factors at "
                                                          r"lengths \[2, 3, 4\], so the prefix"):
            crw_records(id_r, index, text, 1, 2)
        assert walks == {}

    def test_first_occurrence_over_all_members(self, walks):
        # the head 15 of the hexa text is special on the left only, so under
        # psi_2, psi_0 its class derives from the class of 150 at order 3, which
        # walks and occurs at 0 through 150, not through its least member 031;
        # the head class's return word from 0 ends at the first later
        # occurrence of any member, 41 at 3, not of its least member, 12 at 4
        text = hexa_text(50)
        sub = hexa_subgroup(2)
        index = LanguageIndex(text, 6, hexa_group())
        assert index.g_closed and text.startswith("150")
        assert walks == {} and sub.class_representative("150") == "031"
        records = crw_records(sub, index, text, 1, 5)
        assert records == violating_crw_records(sub, index, text, 1, 5)
        assert walks[3, "031"] is not None and text.find("031") == 6


HEXA_SUBGROUPS = [s for s in hexa_group().subgroups() if s.has_antimorphism]


class TestDualDefectHead:
    def test_disagreement_raises(self, i2_2, tm_text, corrupted_defect_head):
        index = LanguageIndex(tm_text[:300], 12, i2_2)
        with pytest.raises(ConsistencyError, match="disagrees with the dual computation"):
            verify_text(i2_2, index)

    @pytest.mark.parametrize("target", HEXA_SUBGROUPS, ids=lambda s: ",".join(e.name for e in s))
    def test_every_subgroup_is_checked(self, corrupt_one_group, target):
        corrupt_one_group(target)
        with pytest.raises(ConsistencyError, match="disagrees with the dual computation"):
            subgroup_scan(LanguageIndex(hexa_text(300), 10, hexa_group()))

    def test_subgroups_share_one_scan_and_one_table(self, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(palindromes, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("_palindrome_scan", "_fixed_suffixes"):
            monkeypatch.setattr(palindromes, name, counted(name))
        results = subgroup_scan(LanguageIndex(hexa_text(300), 10, hexa_group()))
        assert len(results) == len(HEXA_SUBGROUPS) == 11
        assert calls == {"_palindrome_scan": 1, "_fixed_suffixes": 1}


def return_word_shape_ok(group, v, n):
    """Oracle: v = w a ... theta(a) theta(w) for some letter a and antimorphism theta."""
    head = v[:n + 1]
    return any(v.endswith(t.apply(head)) for t in group.antimorphisms)


def alternation_check(group, word, text):
    """Oracle: consecutive orbit occurrences of ``word`` in ``text`` are antimorphic
    images of each other.  Returns (ok, violation), the violation being the two
    positions and the two factors of the first pair that is not."""
    occ = g_occurrences(group, word, text)
    n = len(word)
    for i, j in zip(occ, occ[1:]):
        prev, nxt = text[i:i + n], text[j:j + n]
        if not any(t.apply(prev) == nxt for t in group.antimorphisms):
            return False, (i, j, prev, nxt)
    return True, None


class TestAlternation:
    def test_orbit_alternates(self, i2_2, tm_text):
        assert alternation_check(i2_2, "011", tm_text)[0]

    def test_reversal_alternation_on_rich_word(self, id_r, fib_text):
        for w in ("010", "00100", "10100101"):
            assert alternation_check(id_r, w, fib_text)[0]

    def test_unioccurrent_vacuous(self, i2_2, tm_text):
        w = tm_text[:40]
        assert len(g_occurrences(i2_2, w, tm_text[:60])) >= 1
        assert alternation_check(i2_2, w, tm_text[:41])[0]

    def test_violation_reported(self, id_r):
        # 0 reoccurs after 00 without an intermediate reversal image boundary
        ok, _ = alternation_check(id_r, "01", "0101")
        assert ok  # 01 at 0 and 2: image under reversal is 10, not 01
        ok, violation = alternation_check(exchange_group(), "00", "0000")
        assert not ok and violation is not None


class TestMinDistinguishing:
    def test_single_antimorphism_always_zero(self, id_r, fib_index):
        assert min_distinguishing(id_r, fib_index, 10) == 0

    def test_hexa_needs_two(self):
        text = hexa_text(600)
        index = LanguageIndex(text, 10, hexa_group())
        assert min_distinguishing(hexa_subgroup(2), index, 10) == 2
        assert min_distinguishing(hexa_subgroup(0), index, 10) == 1


class TestSubgroupScan:
    def test_binary_full_group_over_thue_morse(self):
        results = subgroup_scan(LanguageIndex(thue_morse_source().prefix(1000), 14,
                                              binary_full_group()))
        by_id = {r.group_id: r for r in results}
        reversal = by_id["{m:01,a:01}"]
        assert reversal.overall == REFUTED
        full = by_id["{m:01,m:10,a:01,a:10}"]
        assert full.overall == RICH
        exchange = by_id["{m:01,a:10}"]
        assert exchange.overall == REFUTED

    def test_index_without_group_rejected(self):
        with pytest.raises(GroupError, match="index built with a group"):
            subgroup_scan(LanguageIndex(thue_morse_source().prefix(200), 12))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_index_of_too_low_an_order(self, order):
        # the orders checked are 1..order - 2, so none below order 3
        index = LanguageIndex(thue_morse_source().prefix(50), order, binary_full_group())
        with pytest.raises(IndexRangeError, match=rf"^index of order {order} cannot support a "
                                                  r"subgroup scan; it needs order >= 3$"):
            subgroup_scan(index)

    def test_closure_additions_rejected(self, i2_2):
        index = LanguageIndex("00010", 4, i2_2)
        assert index.closure_added
        with pytest.raises(InsufficientPrefixError,
                           match=r"^group closure added factors at lengths \[2, 3, 4\], so the "
                                 r"prefix is not closed under the group; extend the prefix$"):
            subgroup_scan(index)


class TestScanWork:
    """On the benchmark's input, ``repro subgroups`` at length 1000, what
    ``subgroup_scan`` still runs: the index group's report at every order,
    first, and the dual head of every subgroup, while a proper subgroup reads
    the tree-like structure only down to its highest failing order."""

    def test_tls_orders_and_dual_heads(self, monkeypatch):
        module = importlib.import_module("symrich.verify")
        real_tls, real_head = module.tls_verdict, palindromes.TextPalindromes.check_head
        tls, heads = [], []

        def counted_tls(group, index, n):
            tls.append((group, n))
            return real_tls(group, index, n)

        def counted_head(self, group, profile):
            heads.append(group)
            return real_head(self, group, profile)

        monkeypatch.setattr(module, "tls_verdict", counted_tls)
        monkeypatch.setattr(palindromes.TextPalindromes, "check_head", counted_head)
        results = subgroup_scan(LanguageIndex(hexa_text(1000), 22, hexa_group()))
        full, proper = HEXA_SUBGROUPS[-1], HEXA_SUBGROUPS[:-1]
        assert full == hexa_group() and [r.proper for r in results] == [True] * 10 + [False]
        assert Counter(r.overall for r in results) == {REFUTED: 7, RICH: 4}
        assert len(tls) == 87  # 11 subgroups at 20 orders each took 220
        assert tls[:20] == [(full, n) for n in range(1, 21)]
        for sub, result in zip(proper, results):
            # a refuted subgroup fails at the top order already
            expected = range(20, 0, -1) if result.overall == RICH else [20]
            assert [n for g, n in tls[20:] if g == sub] == list(expected)
        assert heads == [full, *proper]


def test_repro_hexa_builds_one_index_per_text_and_order(monkeypatch):
    """The hexa text is indexed for its report and for the capped subgroup
    scan; the octa text once, for transport and bispecial correspondence."""
    built = []
    real = LanguageIndex.__init__

    def spy(self, text, n_max, group=None):
        built.append((text, n_max))
        real(self, text, n_max, group)

    monkeypatch.setattr(LanguageIndex, "__init__", spy)
    repro_hexa(2000, 30)
    hexa, octa = hexa_text(2000), octa_source().prefix(2000)
    assert built == [(hexa, 32), (octa, 15), (hexa, 22)]


def test_repro_hexa_transport_on_a_short_prefix():
    # a 24-letter octa prefix lacks factors such as 301 that closure adds, and
    # their images lie beyond the 40-letter hexa text
    report = repro_hexa(40, 3)
    assert report.ok
    assert [c.render() for c in report.checks if c.name == "palindrome transport"] == [
        "  [ok] palindrome transport: holds"]


class TestDefectSum:
    def test_fibonacci_matches(self):
        out = defect_sum_check(fibonacci_source(), 1500, 30)
        assert out.defect == 0 and out.partial_sum == 0
        assert all(v == 0 for v in out.t_values)
        assert out.matching is True

    def test_thue_morse_keeps_growing(self):
        out = defect_sum_check(thue_morse_source(), 1500, 30)
        assert out.defect > 0 and out.partial_sum > 0
        assert out.matching is not True  # the two sides never meet on this word
        longer = defect_sum_check(thue_morse_source(), 1500, 60)
        assert longer.partial_sum > out.partial_sum

    def test_trivial_range(self):
        out = defect_sum_check(fibonacci_source(), 200, 1)
        assert out.partial_sum == out.t_values[0] == 0
