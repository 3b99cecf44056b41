from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealspaces import (
    ALL_KINDS,
    DEFAULT_CAPS,
    Ideal,
    IdealLattice,
    MixedRings,
    SpectrumKind,
    classify,
    contraction,
    enumerate_homs,
    enumerate_ideals,
    generate_ideal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    jacobson_radical,
    make_quotient,
    make_zmod,
    radical,
    unit_ideal,
    zero_ideal,
)
from idealspaces.rings import _span
from idealspaces.spectra import (
    PointSet,
    image_of_kernel,
    kernel,
    make_spectrum,
)
from idealspaces.verify import _hom_views
from oracles import (
    brute_force_ideal_sets,
    brute_force_is_prime,
    brute_force_radical_members,
    pair_closure_ideal_sets,
)


def test_enumeration_matches_subset_filter_oracle(small_rings):
    for R in small_rings:
        lat = enumerate_ideals(R)
        assert {a.members for a in lat.ideals} == brute_force_ideal_sets(R), R.label


def test_enumeration_matches_oracle_on_extra_rings(ring):
    for expr in ("Z16", "Z2xZ6", "Z9"):
        R = ring(expr)
        assert {a.members for a in enumerate_ideals(R).ideals} == brute_force_ideal_sets(R)


@pytest.mark.parametrize("expr", ["Z60", "Z64", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2xZ2",
                                  "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_enumeration_and_order_match_the_pair_closure(ring, expr):
    """The mask closure gives the frozenset pair closure's member sets, in its
    canonical order, on rings too large for the subset filter."""
    R = ring(expr)
    got = [a.members for a in enumerate_ideals(R).ideals]
    assert got == pair_closure_ideal_sets(R)


def test_ideals_are_stored_as_element_masks():
    """One stored form: the element mask.  Member sets are derived from it."""
    assert [f.name for f in fields(Ideal)] == ["ring", "mask"]
    assert [f.name for f in fields(IdealLattice)] == ["ring", "masks"]


class TestGenerateIdeal:
    def test_principal_in_z12(self, ring):
        assert generate_ideal(ring("Z12"), [4]).members == {0, 4, 8}

    def test_empty_gens_give_zero(self, ring):
        assert generate_ideal(ring("Z12"), []).members == {0}

    def test_atom_of_the_triple_product(self, ring):
        R = ring("Z2xZ2xZ2")
        a = generate_ideal(R, [1])  # (1,0,0) has index 1
        assert a.name == "⟨(1,0,0)⟩"
        assert len(a.members) == 2


class TestLattice:
    def test_z12_has_six_ideals_in_canonical_order(self, ring):
        lat = enumerate_ideals(ring("Z12"))
        assert [a.name for a in lat.ideals] == ["o", "⟨6⟩", "⟨4⟩", "⟨3⟩", "⟨2⟩", "R"]

    def test_fields_have_two(self, ring):
        assert len(enumerate_ideals(ring("Z5"))) == 2

    def test_leq_matches_inclusion(self, ring):
        lat = enumerate_ideals(ring("Z12"))
        for i, a in enumerate(lat.ideals):
            for j, b in enumerate(lat.ideals):
                assert lat.leq[i, j] == (a.members <= b.members)

    def test_ideal_count_cap(self, ring):
        from idealspaces import Caps, CapExceeded
        with pytest.raises(CapExceeded):
            enumerate_ideals(make_zmod(24), Caps(max_ideals=4))  # uncached path
        lat = enumerate_ideals(ring("Z12"))  # warm the cache
        assert len(lat) == 6
        with pytest.raises(CapExceeded, match="6 ideals exceed cap 4"):
            enumerate_ideals(ring("Z12"), Caps(max_ideals=4))  # cached path
        assert make_spectrum(ring("Z12"), "spc").lattice is lat  # cached spectrum
        with pytest.raises(CapExceeded, match="6 ideals exceed cap 4"):
            make_spectrum(ring("Z12"), "spc", Caps(max_ideals=4))


class TestArithmetic:
    def test_intersection_in_z36(self, ring):
        R = ring("Z36")
        a, b = generate_ideal(R, [2]), generate_ideal(R, [3])
        assert ideal_intersect(a, b).members == generate_ideal(R, [6]).members

    def test_coprime_sum_is_everything(self, ring):
        R = ring("Z12")
        s = ideal_sum(generate_ideal(R, [2]), generate_ideal(R, [3]))
        assert not s.proper

    def test_product_with_zero(self, ring):
        R = ring("Z12")
        a = generate_ideal(R, [2])
        assert ideal_product(a, zero_ideal(R)).members == {0}

    def test_mixed_rings_rejected(self, ring):
        with pytest.raises(MixedRings):
            ideal_sum(zero_ideal(ring("Z4")), zero_ideal(ring("Z6")))

    def test_containment_chain(self, small_rings):
        for R in small_rings:
            lat = enumerate_ideals(R)
            for a in lat.ideals:
                for b in lat.ideals:
                    prod = ideal_product(a, b)
                    meet = ideal_intersect(a, b)
                    join = ideal_sum(a, b)
                    assert prod.members <= meet.members
                    assert meet.members <= a.members <= join.members


class TestRadical:
    def test_z12_examples(self, ring):
        R = ring("Z12")
        assert radical(generate_ideal(R, [4])).members == generate_ideal(R, [2]).members
        assert radical(zero_ideal(ring("Z6"))).members == {0}

    def test_matches_oracle(self, small_rings):
        for R in small_rings:
            for a in enumerate_ideals(R).ideals:
                assert radical(a).members == brute_force_radical_members(R, a.members)

    @given(st.integers(min_value=2, max_value=36), st.integers(min_value=0, max_value=35))
    @settings(max_examples=30, deadline=None)
    def test_monotone_idempotent_extensive(self, n, g):
        R = make_zmod(n)
        a = generate_ideal(R, [g % n])
        r = radical(a)
        assert a.members <= r.members
        assert radical(r).members == r.members


class TestClassify:
    def test_spec_examples(self, ring):
        R = ring("Z12")
        assert classify(generate_ideal(R, [2]), "spc")
        assert not classify(generate_ideal(R, [4]), "rad")
        F = ring("Z2")
        assert classify(zero_ideal(F), "max")
        P = ring("Z2xZ2xZ2")
        assert classify(generate_ideal(P, [1]), "min")

    def test_prime_matches_quotient_oracle(self, small_rings):
        for R in small_rings:
            for a in enumerate_ideals(R).ideals:
                assert classify(a, "spc") == brute_force_is_prime(R, a.members), \
                    (R.label, a.name)

    def test_whole_ring_excluded_except_fgn(self, ring):
        R = ring("Z12")
        top = generate_ideal(R, [1])
        for kind in ALL_KINDS:
            expected = kind is SpectrumKind.FGN
            assert classify(top, kind) == expected

    def test_strongly_irreducible_in_z12(self, ring):
        lat = enumerate_ideals(ring("Z12"))
        irs = [a.name for a in lat.ideals if classify(a, "irs")]
        assert irs == ["⟨4⟩", "⟨3⟩", "⟨2⟩"]

    def test_finite_ring_suite_facts(self, suite_rings):
        for R in suite_rings:
            for a in enumerate_ideals(R).ideals:
                spc = classify(a, "spc")
                assert spc == classify(a, "max") == classify(a, "spn")
                assert classify(a, "irr") == classify(a, "irc")
                assert spc == (classify(a, "irs") and classify(a, "rad"))
                assert classify(a, "nil") == classify(a, "nip")
                assert not classify(a, "reg")  # finite: non-zero-divisors are units


class TestContraction:
    def test_quotient_map_example(self, ring):
        R = ring("Z12")
        _, f = make_quotient(R, generate_ideal(R, [4]))
        b = generate_ideal(f.target, [f(2)])
        assert contraction(f, b).members == generate_ideal(R, [2]).members

    def test_kernel_and_full_preimage(self, ring):
        R, S = ring("Z12"), ring("Z4")
        f = enumerate_homs(R, S)[0]
        assert contraction(f, zero_ideal(S)).members == f.kernel().members
        assert not contraction(f, generate_ideal(S, [1])).proper


class TestTrustedBuilders:
    """Builders that skip ``Ideal`` validation, certified by the subset-filter
    oracle on every suite ring small enough for it."""

    def test_outputs_are_genuine_ideals(self, small_rings):
        for R in small_rings:
            oracle = brute_force_ideal_sets(R)
            lat = enumerate_ideals(R)
            built = [zero_ideal(R), unit_ideal(R), jacobson_radical(R), *lat.ideals]
            built += [generate_ideal(R, (x,)) for x in R.elements]
            for a in lat.ideals:
                built.append(radical(a))
                for b in lat.ideals:
                    built += [ideal_sum(a, b), ideal_intersect(a, b), ideal_product(a, b)]
            for kind in ALL_KINDS:
                spec = make_spectrum(R, kind)
                built += image_of_kernel(spec)
                built += [kernel(PointSet(spec, m)) for m in range(1 << len(spec))]
            views = _hom_views(R, DEFAULT_CAPS)
            for f in (v.hom for v in views):
                built.append(f.kernel())
                built += [contraction(f, b) for b in enumerate_ideals(f.target).ideals]
            for a in built:
                assert a.ring is R and a.members in oracle, (R.label, a)

    def test_span_is_the_smallest_oracle_ideal_over_the_seed(self, small_rings):
        for R in small_rings:
            oracle = brute_force_ideal_sets(R)
            for mask in range(1 << R.size):
                seed = [x for x in R.elements if mask >> x & 1]
                smallest = min((a for a in oracle if a.issuperset(seed)), key=len)
                assert _span(R, seed) == sum(1 << x for x in smallest), (R.label, seed)
