from functools import reduce
from operator import and_

import numpy as np
import pytest

from conftest import get_ring
from idealspaces import (
    ALL_KINDS,
    DEFAULT_SUITE_EXPRS,
    DEFAULT_CAPS,
    Caps,
    CapExceeded,
    HypothesisViolated,
    closure_of,
    enumerate_ideals,
    extract_idempotent,
    generate_ideal,
    generate_topology,
    hull,
    irreducible_closed_sets,
    is_connected,
    is_quasi_compact,
    is_sober,
    is_t0,
    is_t1,
    make_product,
    make_spectrum,
    make_zmod,
    parse_ring_expression,
    strongly_disconnects,
    zero_ideal,
)
from idealspaces.spectra import PointSet
from oracles import joint_closure_family, up_set_family


def space(ring_obj, kind, caps=None):
    spec = make_spectrum(ring_obj, kind)
    return generate_topology(spec, caps) if caps else generate_topology(spec)


class TestFamilies:
    def test_prp_z4(self, ring):
        T = space(ring("Z4"), "prp")
        fams = sorted(tuple(sorted(ps.indices)) for ps in T.closed_family)
        # points are [o, ⟨2⟩]; closed sets ∅, {⟨2⟩}, X
        assert fams == [(), (0, 1), (1,)]

    def test_max_z6_discrete(self, ring):
        T = space(ring("Z6"), "max")
        assert T.is_discrete
        assert len(T.closed_masks) == 4

    def test_one_point_space(self, ring):
        T = space(ring("Z4"), "spc")
        assert sorted(T.closed_masks) == [0, 1]

    def test_matches_joint_closure_oracle(self, suite_rings):
        for R in suite_rings:
            for kind in ("prp", "spc", "min", "nil", "irs"):
                T = space(R, kind)
                expected = joint_closure_family(T.subbase_masks, T.full_mask)
                assert set(T.closed_masks) == expected, (R.label, kind)

    def test_closed_sets_are_exactly_up_sets(self, suite_rings):
        for R in suite_rings:
            for kind in ("prp", "spc", "min", "rad", "prm"):
                spec = make_spectrum(R, kind)
                if len(spec) > 16:
                    continue
                T = generate_topology(spec)
                assert set(T.closed_masks) == up_set_family(spec), (R.label, kind)

    def test_cap_exceeded(self):
        spec = make_spectrum(parse_ring_expression("Z6xZ6"), "prp")  # fresh ring
        T = generate_topology(spec, Caps(max_closed_sets=10))
        with pytest.raises(CapExceeded, match=r"^closed base exceeds cap 10$"):
            T.closed_masks

    @pytest.mark.parametrize("capped_first", [False, True])
    def test_closed_family_cap_holds_on_every_call(self, capped_first):
        # each call's cap binds its own space, whichever call came first
        spec = make_spectrum(parse_ring_expression("Z6xZ6"), "prp")  # fresh ring
        calls = [(DEFAULT_CAPS, 167), (Caps(max_closed_sets=10), None)]
        for caps, size in calls[::-1] if capped_first else calls:
            T = generate_topology(spec, caps)
            if size is None:
                with pytest.raises(CapExceeded, match=r"^closed base exceeds cap 10$"):
                    T.closed_masks
            else:
                assert len(T.closed_masks) == size


def _reference_spaces():
    """Every suite (ring, kind) space of at most 16 points, and Z2^4/prp."""
    out = []
    for expr in DEFAULT_SUITE_EXPRS:
        for kind in ALL_KINDS:
            spec = make_spectrum(get_ring(expr), kind)
            if len(spec) <= 16:
                out.append(generate_topology(spec))
    out.append(space(get_ring("Z2xZ2xZ2xZ2"), "prp"))
    return out


def _oracle_family(T):
    """Closed family from the hulls of every ideal, each hull computed from
    the members, by the joint union/intersection fixpoint."""
    spec = T.spectrum
    hulls = set()
    for a in enumerate_ideals(spec.ring).ideals:
        hulls.add(sum(1 << j for j, p in enumerate(spec.points) if a.members <= p.members))
    return joint_closure_family(hulls, spec.full_mask)


class TestOrderDerivedTopology:
    """The topology read off the point order against definitional routes."""

    @pytest.fixture(scope="class")
    def spaces(self):
        return [(T, _oracle_family(T)) for T in _reference_spaces()]

    def test_closed_family_matches_both_oracles(self, spaces):
        assert len(spaces) > 100
        for T, fam in spaces:
            label = T.spectrum.label
            assert T.closed_masks == tuple(sorted(fam)), label
            assert fam == up_set_family(T.spectrum), label
            assert T.base_masks == T.closed_masks, label

    def test_closure_is_the_meet_of_closed_supersets(self, spaces):
        for T, fam in spaces:
            n = len(T.spectrum)
            subsets = np.arange(1 << n, dtype=np.int64)
            meet = np.full(1 << n, T.full_mask, dtype=np.int64)
            for c in fam:
                meet = np.where(subsets & ~c == 0, meet & c, meet)
            got = [closure_of(T, S).mask for S in range(1 << n)]
            assert got == meet.tolist(), T.spectrum.label

    def test_irreducibles_are_the_nonunions(self, spaces):
        for T, fam in spaces:
            n = len(T.spectrum)
            point_closures = [reduce(and_, (f for f in fam if f >> j & 1)) for j in range(n)]
            expected = []
            for c in sorted(fam, key=lambda m: (bin(m).count("1"), m)):
                smaller = [a for a in fam if a & ~c == 0 and a != c]
                if c and not any(a | b == c for a in smaller for b in smaller):
                    gens = tuple(j for j in range(n) if point_closures[j] == c)
                    expected.append((c, gens))
            got = [(ps.mask, gens) for ps, gens in irreducible_closed_sets(T)]
            assert got == expected, T.spectrum.label


class TestClosure:
    def test_zero_ideal_is_dense_in_prp_z4(self, ring):
        R = ring("Z4")
        T = space(R, "prp")
        o = zero_ideal(R)
        cl = closure_of(T, PointSet(T.spectrum, 1 << T.spectrum.index[o]))
        assert cl.mask == T.spectrum.full_mask

    def test_idempotent_on_closed_sets(self, ring):
        T = space(ring("Z12"), "prp")
        for m in T.closed_masks:
            assert closure_of(T, m).mask == m

    def test_closed_point_of_spc_z12(self, ring):
        R = ring("Z12")
        T = space(R, "spc")
        two = generate_ideal(R, [2])
        i = T.spectrum.index[two]
        assert closure_of(T, 1 << i).mask == 1 << i


class TestSeparation:
    def test_t0_everywhere(self, suite_rings):
        for R in suite_rings:
            for kind in ("prp", "spc", "min", "nil", "rad", "irs"):
                assert is_t0(space(R, kind)).holds, (R.label, kind)

    def test_t1_examples(self, ring):
        assert is_t1(space(ring("Z6"), "max")).holds
        rep = is_t1(space(ring("Z4"), "prp"))
        assert rep.fails
        assert rep.witness["point"]["ideal"] == "o"

    def test_sober_and_connected_prp_z12(self, ring):
        T = space(ring("Z12"), "prp")
        assert is_sober(T).holds
        assert is_connected(T).holds

    def test_min_antichains_are_discrete_hence_t1(self, ring):
        T = space(ring("Z12"), "min")
        assert T.is_discrete
        assert is_t1(T).holds
        assert not is_connected(T).holds

    def test_quasi_compact_notes_pathway(self, ring):
        rep = is_quasi_compact(space(ring("Z12"), "prp"))
        assert rep.holds and "partition-of-unity holds" in rep.notes
        rep = is_quasi_compact(space(ring("Z2xZ2xZ2"), "min"))
        assert rep.holds and "fails" in rep.notes


class TestIrreducibles:
    def test_prp_z4(self, ring):
        R = ring("Z4")
        T = space(R, "prp")
        spec = T.spectrum
        got = {(ps.mask, tuple(spec.points[i].name for i in gens))
               for ps, gens in irreducible_closed_sets(T)}
        i2 = spec.index[generate_ideal(R, [2])]
        assert got == {(1 << i2, ("⟨2⟩",)), (spec.full_mask, ("o",))}

    def test_max_z6_singletons(self, ring):
        T = space(ring("Z6"), "max")
        assert sorted(ps.mask for ps, _ in irreducible_closed_sets(T)) == [1, 2]

    def test_nonempty_subbasic_hulls_of_prp_are_irreducible(self, suite_rings):
        for R in suite_rings:
            T = space(R, "prp")
            irr = {ps.mask for ps, _ in irreducible_closed_sets(T)}
            for m in T.subbase_masks:
                if m:
                    assert m in irr, R.label


class TestStrongDisconnection:
    def test_max_z6(self, ring):
        rep = strongly_disconnects(space(ring("Z6"), "max"), "subbase")
        assert rep.holds
        assert rep.witness["a"]["ideal"] == "⟨2⟩"
        assert rep.witness["b"]["ideal"] == "⟨3⟩"

    def test_connected_space_is_never_strongly_disconnected(self, ring):
        for kind in ("prp", "fgn", "prn"):
            rep = strongly_disconnects(space(ring("Z6xZ6"), kind), "subbase")
            assert rep.fails

    def test_coordinate_pair_fails_to_cover_prp(self, ring):
        R = ring("Z6xZ6")
        spec = make_spectrum(R, "prp")
        a = generate_ideal(R, [1])            # (1,0)
        b = generate_ideal(R, [6])            # (0,1) has index 6 = 0 + 6*1
        ha, hb = hull(spec, a), hull(spec, b)
        assert not ha.is_empty and not hb.is_empty
        assert ha.mask & hb.mask == 0
        uncovered = spec.full_mask & ~(ha.mask | hb.mask)
        assert uncovered
        names = {p.name for p in PointSet(spec, uncovered).ideals}
        assert "⟨(2,2)⟩" in names

    def test_base_variant(self, ring):
        rep = strongly_disconnects(space(ring("Z12"), "min"), "base")
        assert rep.holds


class TestExtractIdempotent:
    def test_max_z6(self, ring):
        R = ring("Z6")
        T = space(R, "max")
        e = extract_idempotent(T, (generate_ideal(R, [2]), generate_ideal(R, [3])))
        assert e == 4
        assert R.mul[e, e] == e

    def test_product_coordinates(self):
        R = make_product([make_zmod(2), make_zmod(3)])
        T = space(R, "max")
        a = generate_ideal(R, [1])  # (1,0)
        b = generate_ideal(R, [2])  # (0,1)
        e = extract_idempotent(T, (a, b))
        assert R.name(e) in ("(1,0)", "(0,1)")
        assert e in a.members

    def test_field_has_no_pair(self, ring):
        R = ring("Z5")
        T = space(R, "max")
        with pytest.raises(HypothesisViolated):
            extract_idempotent(T, (zero_ideal(R), zero_ideal(R)))

    def test_nonzero_jacobson_radical_rejected(self, ring):
        R = ring("Z4")
        T = space(R, "max")
        with pytest.raises(HypothesisViolated):
            extract_idempotent(T, (zero_ideal(R), zero_ideal(R)))
