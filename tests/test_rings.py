import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealspaces import (
    Caps,
    CapExceeded,
    ImproperIdeal,
    InvalidArity,
    InvalidSize,
    RingAxiomError,
    ZeroInMultiplicativeSet,
    contraction,
    enumerate_homs,
    enumerate_ideals,
    generate_ideal,
    is_isomorphic,
    is_von_neumann_regular,
    jacobson_radical,
    localize,
    make_product,
    make_quotient,
    make_zmod,
    multiplicative_closure,
    zero_ideal,
)
from idealspaces.rings import FiniteRing, Ideal


class TestMakeZmod:
    def test_z6_units_and_idempotents(self):
        R = make_zmod(6)
        assert R.units == (1, 5)
        assert R.idempotents == (0, 1, 3, 4)

    def test_z2_is_the_two_element_field(self):
        R = make_zmod(2)
        assert R.zero == 0 and R.one == 1
        assert R.units == (1,)

    def test_z4_two_squared_vanishes(self):
        R = make_zmod(4)
        assert R.mul[2, 2] == 0

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            make_zmod(1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            make_zmod(100)
        make_zmod(100, caps=Caps(max_ring_size=128))

    def test_cap_is_checked_before_building_tables(self):
        # parsing untrusted text such as "Z99999" must not allocate n^2 cells
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                make_zmod(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 1000 x 1000 tables take tens of MiB

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_constructor_validates_axioms(self, n):
        make_zmod(n)  # would raise on any axiom violation

    def test_axiom_violation_rejected(self):
        R = make_zmod(4)
        mul = np.array(R.mul)
        mul[2, 3] = 1  # breaks commutativity
        with pytest.raises(RingAxiomError):
            FiniteRing(R.add, mul, 0, 1, "broken")


class TestIdealValidation:
    """The public constructor checks every axiom; in Z2xZ2, (1,0) = 1,
    (0,1) = 2 and (1,1) = 3."""

    def test_rejects_a_set_without_zero(self, ring):
        with pytest.raises(RingAxiomError, match="zero"):
            Ideal(ring("Z2xZ2"), frozenset({1}))

    def test_rejects_a_set_not_closed_under_addition(self, ring):
        # absorbs multiplication, but (1,0) + (0,1) = (1,1) is missing
        with pytest.raises(RingAxiomError, match="addition"):
            Ideal(ring("Z2xZ2"), frozenset({0, 1, 2}))

    def test_rejects_a_subgroup_that_does_not_absorb(self, ring):
        # closed under addition, but (1,0)*(1,1) = (1,0) is missing
        with pytest.raises(RingAxiomError, match="absorb"):
            Ideal(ring("Z2xZ2"), frozenset({0, 3}))

    def test_rejects_indices_outside_the_ring(self, ring):
        # -3 would otherwise index element 1 and pass every other check
        for members in ({0, 1, -3}, {0, 99}):
            with pytest.raises(RingAxiomError, match="element indices"):
                Ideal(ring("Z2xZ2"), frozenset(members))

    def test_accepts_an_ideal(self, ring):
        R = ring("Z2xZ2")
        assert Ideal(R, frozenset({0, 1})) == generate_ideal(R, [1])


class TestMakeProduct:
    def test_triple_product_has_eight_ideals(self):
        R = make_product([make_zmod(2)] * 3)
        assert R.size == 8
        assert len(enumerate_ideals(R)) == 8

    def test_z6_squared_is_semisimple(self):
        R = make_product([make_zmod(6), make_zmod(6)])
        assert R.size == 36
        assert jacobson_radical(R).members == {R.zero}

    def test_unary_product_is_a_copy(self):
        Z4 = make_zmod(4)
        assert is_isomorphic(make_product([Z4]), Z4)

    def test_empty_product_rejected(self):
        with pytest.raises(InvalidArity):
            make_product([])

    def test_little_endian_indexing(self):
        R = make_product([make_zmod(2), make_zmod(3)])
        # (1, 0) is index 1; (0, 1) is index 2
        assert R.name(1) == "(1,0)"
        assert R.name(2) == "(0,1)"


class TestQuotient:
    def test_z12_mod_4_is_z4(self):
        R = make_zmod(12)
        Q, f = make_quotient(R, generate_ideal(R, [4]))
        assert is_isomorphic(Q, make_zmod(4))
        assert f.kernel().members == {0, 4, 8}
        assert f.is_surjective()

    def test_z12_mod_6_is_z6(self):
        R = make_zmod(12)
        Q, _ = make_quotient(R, generate_ideal(R, [6]))
        assert is_isomorphic(Q, make_zmod(6))

    def test_quotient_by_zero_is_a_copy(self):
        R = make_zmod(12)
        Q, f = make_quotient(R, zero_ideal(R))
        assert is_isomorphic(Q, R)
        assert len(f.kernel().members) == 1

    def test_improper_rejected(self):
        R = make_zmod(4)
        with pytest.raises(ImproperIdeal):
            make_quotient(R, generate_ideal(R, [1]))

    def test_contraction_of_zero_recovers_the_ideal(self):
        R = make_zmod(12)
        for gens in ([4], [6], [2], [3]):
            a = generate_ideal(R, gens)
            _, f = make_quotient(R, a)
            assert contraction(f, zero_ideal(f.target)).members == a.members


class TestLocalize:
    def test_z12_at_two(self):
        R = make_zmod(12)
        S = multiplicative_closure(R, [2])
        assert S.members == {1, 2, 4, 8}
        L, f = localize(R, S)
        assert sorted(int(x) for x in L.names) == [0, 4, 8]
        assert L.one == L.names.index("4")
        assert is_isomorphic(L, make_zmod(3))
        for s in S.members:
            assert L.is_unit(f(s))

    def test_kernel_is_the_annihilated_set(self):
        R = make_zmod(12)
        S = multiplicative_closure(R, [2])
        _, f = localize(R, S)
        expected = {r for r in R.elements
                    if any(R.mul[r, s] == R.zero for s in S.members)}
        assert f.kernel().members == expected

    def test_localize_at_units_is_a_copy(self):
        R = make_zmod(12)
        L, _ = localize(R, multiplicative_closure(R, [1]))
        assert is_isomorphic(L, R)

    def test_z6_at_three(self):
        R = make_zmod(6)
        S = multiplicative_closure(R, [3])
        assert S.members == {1, 3}
        L, _ = localize(R, S)
        assert L.names[L.one] == "3"  # 3*3 = 3 mod 6 is the idempotent
        assert is_isomorphic(L, make_zmod(2))

    def test_zero_rejected(self):
        R = make_zmod(6)
        with pytest.raises(ZeroInMultiplicativeSet):
            localize(R, multiplicative_closure(R, [0]))
        # nilpotent generators force 0 into the closure too
        R8 = make_zmod(8)
        with pytest.raises(ZeroInMultiplicativeSet):
            localize(R8, multiplicative_closure(R8, [2]))


class TestJacobson:
    def test_z6_semisimple(self):
        R = make_zmod(6)
        assert jacobson_radical(R).members == {0}

    def test_z4_local(self):
        R = make_zmod(4)
        assert jacobson_radical(R).members == {0, 2}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fields(self, p):
        assert jacobson_radical(make_zmod(p)).members == {0}


class TestHoms:
    def test_z12_to_z4_unique(self):
        homs = enumerate_homs(make_zmod(12), make_zmod(4))
        assert len(homs) == 1
        assert homs[0].map == tuple(r % 4 for r in range(12))

    def test_z2_to_z3_empty(self):
        assert enumerate_homs(make_zmod(2), make_zmod(3)) == []

    def test_identity_found(self):
        R = make_zmod(6)
        maps = [f.map for f in enumerate_homs(R, R)]
        assert tuple(range(6)) in maps

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_homs(make_zmod(12), make_zmod(12), caps=Caps(max_hom_product=100))

    def test_product_projections_are_homs(self):
        P = make_product([make_zmod(2), make_zmod(2)])
        homs = enumerate_homs(P, make_zmod(2))
        assert len(homs) == 2  # one projection per coordinate


class TestRegularity:
    def test_products_of_fields_are_regular(self):
        assert is_von_neumann_regular(make_zmod(6))
        assert is_von_neumann_regular(make_product([make_zmod(2)] * 3))
        assert is_von_neumann_regular(make_zmod(30))

    def test_z4_is_not(self):
        assert not is_von_neumann_regular(make_zmod(4))
