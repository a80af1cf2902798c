import functools

import pytest

from groups import cyclic4_antimorphism_group
from oracles import closure_involutively_generated, closure_subgroups, distinguishing
from symrich import Alphabet, GroupError, SymmetryGroup, SymmetryMap, dihedral_group
from symrich.presets import (
    BINARY,
    binary_full_group,
    exchange_group,
    hexa_group,
    hexa_psi,
    octa_group,
    octa_theta,
)

R = SymmetryMap.reversal(BINARY)
E = SymmetryMap(BINARY, ("1", "0"), antimorphic=True)


class TestSymmetryMap:
    def test_apply_reversal_fixed_point(self):
        assert R.apply("0110") == "0110"

    def test_exchange_antimorphism(self):
        assert E.apply("011") == "001"

    def test_octa_generator_on_run(self):
        theta1 = octa_theta(1)
        alpha = theta1.alphabet
        assert theta1.apply("0123") == "7654"

    def test_identity_and_length(self):
        ident = SymmetryMap.identity(BINARY)
        assert ident.apply("010011") == "010011"
        assert len(E.apply("0100001")) == 7

    def test_empty_word_fixed(self):
        assert R.apply("") == "" and E.apply("") == ""

    def test_rejects_non_bijection(self):
        with pytest.raises(GroupError):
            SymmetryMap(BINARY, ("0", "0"), False)

    def test_compose_involution(self):
        assert R.compose(R).is_identity()

    def test_compose_orientation(self):
        er = E.compose(R)
        assert not er.antimorphic
        assert er.apply("0110") == "1001"

    def test_compose_of_octa_generators_is_morphic(self):
        c = octa_theta(0).compose(octa_theta(1))
        assert not c.antimorphic and not c.is_identity()
        # table composition: theta1 first, then theta0 on letters
        t0, t1 = octa_theta(0), octa_theta(1)
        for g in c.alphabet:
            assert c.image_of(g) == t0.image_of(t1.image_of(g))

    def test_inverse(self):
        theta = octa_theta(1)
        assert theta.inverse().compose(theta).is_identity()

    def test_alphabet_mismatch_rejected(self):
        other = SymmetryMap.reversal(Alphabet.from_string("012"))
        with pytest.raises(GroupError):
            R.compose(other)

    def test_equal_maps_built_differently_hash_equal(self):
        # the hash is computed once per map; equal maps from every constructor must agree
        ways = [
            SymmetryMap(BINARY, ("1", "0"), antimorphic=True),
            SymmetryMap.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=True),
            E.inverse(),
            R.compose(SymmetryMap(BINARY, ("1", "0"), antimorphic=False)),
            E.compose(E).compose(E),
        ]
        for m in ways:
            assert m == E and hash(m) == hash(E)
            assert {E: "found"}[m] == "found"
        assert hash(SymmetryMap.identity(BINARY)) == hash(R.compose(R))
        assert E != SymmetryMap(BINARY, ("1", "0"), antimorphic=False)
        assert len({E, *ways, R, R.compose(E)}) == 3


class TestClosure:
    def test_reversal_group(self):
        g = SymmetryGroup.close([R])
        assert [e.name for e in g.elements] == ["m:01", "a:01"]

    def test_binary_full_group(self):
        g = SymmetryGroup.close([E, R])
        assert g.order == 4
        assert {e.name for e in g.elements} == {"m:01", "m:10", "a:01", "a:10"}
        assert [e.name for e in g.involutive_antimorphisms] == ["a:01", "a:10"]

    def test_octa_group_order_8(self):
        g = octa_group()
        assert g.order == 8
        assert len(g.morphisms) == len(g.antimorphisms) == 4

    def test_hexa_group_elementary_abelian(self):
        g = hexa_group()
        assert g.order == 8 and g.is_abelian()
        assert all(e.compose(e).is_identity() for e in g.elements)

    def test_close_idempotent(self):
        g = octa_group()
        again = SymmetryGroup.close(g.elements)
        assert again.elements == g.elements

    def test_balanced_morphism_counts(self):
        for g in (binary_full_group(), octa_group(), hexa_group(), dihedral_group(3)):
            assert len(g.morphisms) == len(g.antimorphisms)

    def test_morphism_only_group_flagged(self):
        ex = SymmetryMap(BINARY, ("1", "0"), antimorphic=False)
        g = SymmetryGroup.close([ex])
        assert not g.has_antimorphism
        assert len(g.morphisms) != len(g.antimorphisms)


class TestGroupAction:
    def test_equivalence_class_reference_set(self, i2_2):
        assert set(i2_2.equivalence_class("011")) == {"011", "110", "100", "001"}

    def test_empty_word_class(self, i2_2):
        assert i2_2.equivalence_class("") == ("",)

    def test_letter_class_dihedral3(self, i2_3):
        assert i2_3.equivalence_class("0") == ("0", "1", "2")

    def test_classes_partition_and_preserve_length(self, i2_3):
        words = {"012", "120", "201", "000", "111"}
        for w in words:
            cls = i2_3.equivalence_class(w)
            assert all(len(v) == len(w) for v in cls)
            for v in cls:
                assert i2_3.equivalence_class(v) == cls


class TestInvolutiveGeneration:
    def test_binary_full_group(self, i2_2):
        assert i2_2.is_involutively_generated()

    def test_hexa(self):
        assert hexa_group().is_involutively_generated()

    def test_cyclic4_is_not(self):
        g = cyclic4_antimorphism_group()
        assert g.order == 4
        assert g.involutive_antimorphisms == ()
        assert not g.is_involutively_generated()


class TestDistinguishing:
    def test_octa_letters(self):
        g = octa_group()
        assert distinguishing(g, list("01234567"))

    def test_hexa_subgroup2_needs_length_2(self):
        h2 = SymmetryGroup.close([hexa_psi(2), hexa_psi(0)])
        assert not distinguishing(h2, ["0"])

    def test_hexa_subgroup2_at_length_2(self, t33_text):
        # the length-2 factor set of the image word distinguishes the subgroup
        from symrich import LanguageIndex
        from symrich.presets import hexa_text

        h2 = SymmetryGroup.close([hexa_psi(2), hexa_psi(0)])
        index = LanguageIndex(hexa_text(500), 4)
        assert distinguishing(h2, index.factors(2))

    def test_equal_lengths_required(self, i2_2):
        with pytest.raises(GroupError):
            distinguishing(i2_2, ["0", "01"])


class TestDihedral:
    def test_m2_matches_binary_full_group(self):
        assert dihedral_group(2).elements == binary_full_group().elements

    def test_m3_is_the_six_element_group(self):
        g = dihedral_group(3)
        assert g.order == 6 and not g.is_abelian()
        names = {e.name for e in g.elements}
        assert names == {"m:012", "m:120", "m:201", "a:021", "a:102", "a:210"}
        assert len(g.involutive_antimorphisms) == 3

    def test_m1_degenerates_to_reversal(self):
        g = dihedral_group(1)
        assert {e.name for e in g.elements} == {"m:0", "a:0"}


class TestSubgroups:
    def test_binary_full_group_subgroups(self, i2_2):
        subs = i2_2.subgroups()
        orders = sorted(s.order for s in subs)
        assert orders == [1, 2, 2, 2, 4]

    def test_hexa_subgroup_count(self):
        subs = hexa_group().subgroups()
        # elementary abelian of order 8: 1 + 7 + 7 + 1 subgroups
        assert len(subs) == 16
        with_antim = [s for s in subs if s.has_antimorphism]
        assert len(with_antim) == 11

    @pytest.mark.parametrize("make", [
        *(functools.partial(dihedral_group, m) for m in range(1, 7)),
        hexa_group, octa_group, cyclic4_antimorphism_group, exchange_group,
        lambda: SymmetryGroup.close([SymmetryMap.identity(BINARY)]),
    ], ids=[f"dihedral{m}" for m in range(1, 7)] + ["hexa", "octa", "cyclic4", "exchange", "trivial"])
    def test_table_path_matches_closure_oracle(self, make):
        group = make()
        subs = group.subgroups()
        assert subs == closure_subgroups(group)
        for g in [group, *subs]:
            assert g.is_involutively_generated() is closure_involutively_generated(g)
