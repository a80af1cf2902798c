import pytest

from oracles import g_occurrences
from symrich import (
    AlphabetError,
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
from symrich.presets import (
    BINARY,
    binary_full_group,
    cyclic4_antimorphism_group,
    exchange_group,
    fibonacci_source,
    generalized_thue_morse,
    hexa_group,
    hexa_text,
    reversal_group,
    thue_morse_source,
)
from symrich.symmetry import dihedral_group
from symrich.verify import ALMOST, REFUTED, RICH, min_distinguishing
from symrich.words import Alphabet, LiteralSource, PeriodicSource, WordSource


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

    def test_requires_antimorphism(self):
        from symrich.symmetry import SymmetryGroup, SymmetryMap

        exchange_morphism = SymmetryMap(Alphabet.from_string("01"), ("1", "0"), False)
        morphic_only = SymmetryGroup.close([exchange_morphism])
        with pytest.raises(GroupError):
            verify(morphic_only, thue_morse_source(), 500, 8)

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
        assert report == verify_text(group, inner.prefix(final), n_max=n_max,
                                     stability=stability, word_id=repr(inner))

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
        with pytest.raises(AlphabetError, match="glyph '2' at position 99"):
            verify_text(binary_full_group(), self.FOREIGN, n_max=10, stability=stability)

    @pytest.mark.parametrize("stability", [None, True])
    def test_foreign_glyph_rejected_by_subgroup_scan(self, stability):
        with pytest.raises(AlphabetError, match="glyph '2' at position 99"):
            subgroup_scan(binary_full_group(), self.FOREIGN, 10, stability)

    def test_index_of_another_text(self, i2_2):
        index = LanguageIndex(thue_morse_source().prefix(201)[1:], 12, i2_2)
        with pytest.raises(SymrichError, match="another text"):
            verify_text(i2_2, self.TM, n_max=10, stability=True, index=index)

    def test_index_of_too_low_an_order(self, i2_2):
        index = LanguageIndex(self.TM, 11, i2_2)
        with pytest.raises(IndexRangeError, match="order 11 .* needs order 12"):
            verify_text(i2_2, self.TM, n_max=10, stability=True, index=index)

    @pytest.mark.parametrize("index_group", [None, reversal_group(BINARY)])
    def test_index_group_not_containing_the_group(self, i2_2, index_group):
        text = "0001000100010001000"
        index = LanguageIndex(text, 6, index_group)
        with pytest.raises(GroupError, match="does not contain"):
            verify_text(i2_2, text, n_max=4, stability=True, index=index)

    def test_index_closure_under_a_larger_group(self, i2_2, id_r):
        # the text is closed under reversal; its closure under i2_2 adds 11, 111, ...
        text = "0001000100010001000"
        index = LanguageIndex(text, 6, i2_2)
        with pytest.raises(GroupError, match="added factors at lengths"):
            verify_text(id_r, text, n_max=4, stability=True, index=index)


class TestCrw:
    def test_shape_of_return_words_on_rich_run(self, tm_rich_report):
        for record in tm_rich_report.crw:
            if record.return_words:
                assert all(return_word_shape_ok(binary_full_group(), v, record.n)
                           for v in record.return_words)


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
        from symrich.presets import hexa_subgroup

        text = hexa_text(600)
        index = LanguageIndex(text, 10, hexa_group())
        assert min_distinguishing(hexa_subgroup(2), index, 10) == 2
        assert min_distinguishing(hexa_subgroup(0), index, 10) == 1


class TestSubgroupScan:
    def test_binary_full_group_over_thue_morse(self):
        source = thue_morse_source()
        results = subgroup_scan(binary_full_group(), source.prefix(1000), 12,
                                stability_check(source, 1000, 14))
        by_id = {r.group_id: r for r in results}
        reversal = by_id["{m:01,a:01}"]
        assert reversal.overall == REFUTED
        full = by_id["{m:01,m:10,a:01,a:10}"]
        assert full.overall == RICH
        exchange = by_id["{m:01,a:10}"]
        assert exchange.overall == REFUTED


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
