import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealspaces import (
    ALL_CHECK_IDS,
    ALL_KINDS,
    REGISTRY,
    FiniteRing,
    IdealSpacesError,
    SuiteConfig,
    SuiteRecord,
    generate_topology,
    has_partition_of_unity,
    make_spectrum,
    registry_markdown,
    run_check,
    run_suite,
    search_counterexamples,
    verify_homeomorphism,
)
from idealspaces.verify import _embedding_failure
from conftest import get_ring

DOCS_TABLE = Path(__file__).parent.parent / "docs" / "checks.md"


class TestRegistry:
    def test_twenty_four_checks(self):
        assert len(ALL_CHECK_IDS) == 24
        assert ALL_CHECK_IDS[0] == "T01" and ALL_CHECK_IDS[-1] == "T24"
        for cid, spec in REGISTRY.items():
            assert spec.form in ("theorem", "example")
            assert spec.statement

    def test_docs_table_is_generated_from_registry(self):
        assert DOCS_TABLE.read_text(encoding="utf-8").strip().endswith(
            registry_markdown().strip().splitlines()[-1])
        assert registry_markdown() in DOCS_TABLE.read_text(encoding="utf-8")

    def test_unknown_check_rejected(self, ring):
        with pytest.raises(IdealSpacesError):
            run_check("T99", ring("Z4"), "spc")

    def test_not_applicable_is_vacuous(self, ring):
        assert run_check("T12", ring("Z4"), "spc").status == "vacuous"

    def test_empty_spectrum_is_vacuous(self, ring):
        for cid in ALL_CHECK_IDS:
            if REGISTRY[cid].applicable("min"):
                assert run_check(cid, ring("Z2"), "min").status == "vacuous", cid


class TestKnownOutcomes:
    def test_t03_reproduces_both_sides_false(self, ring):
        rep = run_check("T03", ring("Z2xZ2xZ2"), "min")
        assert rep.holds
        assert "mip fails" in rep.notes and "union axiom fails" in rep.notes

    def test_t03_exhaustive_pair_check_annotated(self, ring):
        rep = run_check("T03", ring("Z12"), "prp")
        assert rep.holds and "exhaustive subset-pair check" in rep.notes

    def test_t02_sides_travel_together(self, ring):
        rep = run_check("T02", ring("Z12"), "rad")
        assert rep.holds and "all three sides true" in rep.notes
        rep = run_check("T02", ring("Z12"), "prp")
        assert rep.holds and "all three sides false" in rep.notes

    def test_t06_t08_against_partition_of_unity(self, suite_rings):
        # the radical sandwich breaks exactly when pou fails; the T1
        # characterization can only break when pou fails (both sides may
        # still be false together on chains such as the nil spectrum)
        for R in suite_rings:
            for kind in ALL_KINDS:
                spec = make_spectrum(R, kind)
                if not spec.points:
                    continue
                pou = has_partition_of_unity(spec)
                assert run_check("T06", R, kind).holds == pou, (R.label, kind)
                t08 = run_check("T08", R, kind)
                if pou:
                    assert t08.holds, (R.label, kind)
                elif t08.fails:
                    assert not pou

    def test_t06_regular_ring_criterion_on_products_of_fields(self, ring):
        for expr in ("Z6", "Z2xZ2xZ2", "Z30"):
            for kind in ("spc", "prp", "irs"):
                rep = run_check("T06", ring(expr), kind)
                assert rep.holds and "regular-ring criterion checked" in rep.notes

    def test_t06_witness_on_min_of_triple_product(self, ring):
        rep = run_check("T06", ring("Z2xZ2xZ2"), "min")
        assert rep.fails
        assert rep.witness["part"] == "√[X]a ⊆ √a"
        assert rep.witness["x_radical"]["ideal"] == "R"

    def test_t08_min_z12_is_t1_without_maximal_points(self, ring):
        rep = run_check("T08", ring("Z12"), "min")
        assert rep.fails
        assert rep.witness["t1"] == "holds"
        assert rep.witness["X ⊆ Max"] is False

    def test_t10_records_hull_collisions(self, ring):
        rep = run_check("T10", ring("Z4"), "spc")
        assert rep.holds
        assert "criterion (all ideals) False" in rep.notes
        assert "h(o)=h(⟨2⟩)" in rep.notes

    def test_t14_t15_on_semisimple_rings(self, ring):
        rep = run_check("T14", ring("Z6"), "max")
        assert rep.holds and "idempotent 4" in rep.notes
        rep = run_check("T15", ring("Z6"), "max")
        assert rep.holds and "a=⟨4⟩" in rep.notes and "b=⟨3⟩" in rep.notes

    def test_t14_vacuous_without_semisimplicity(self, ring):
        assert run_check("T14", ring("Z4"), "max").status == "vacuous"

    def test_t16_converse_noted(self, ring):
        rep = run_check("T16", ring("Z4"), "max")
        assert rep.status == "vacuous"
        assert "converse fails here" in rep.notes

    def test_t17_on_the_product_analog(self, ring):
        rep = run_check("T17", ring("Z6xZ6"), "prp")
        assert rep.holds
        assert "⟨(2,2)⟩" in rep.notes

    def test_t19_margin_case(self, ring):
        rep = run_check("T19", ring("Z4"), "min")
        assert rep.fails
        assert rep.witness["hom"] == "Z4 -> Z4/⟨2⟩"

    def test_t21_holds_for_primes_fails_for_proper(self, ring):
        assert run_check("T21", ring("Z12"), "spc").holds
        rep = run_check("T21", ring("Z12"), "prp")
        assert rep.fails
        assert "saturated" in rep.notes

    def test_t22_quotient_corollary_on_primes(self, ring):
        assert run_check("T22", ring("Z12"), "spc").holds

    def test_t23_equivalence(self, suite_rings):
        for R in suite_rings:
            for kind in ALL_KINDS:
                if make_spectrum(R, kind).points:
                    assert run_check("T23", R, kind).holds, (R.label, kind)

    def test_t24_exact_and_analog_notes(self, ring):
        rep = run_check("T24", ring("Z2xZ2xZ2"), "min")
        assert rep.fails and "exact reproduction" in rep.notes
        rep = run_check("T24", ring("Z36"), "rad")
        assert rep.fails and "finite analog" in rep.notes
        rep = run_check("T24", ring("Z12"), "irr")
        assert rep.holds and "strongly irreducible" in rep.notes


@pytest.fixture(scope="module")
def records():
    return run_suite(SuiteConfig())


class TestSuite:
    def test_every_check_has_a_nonvacuous_instance(self, records):
        covered = {r.id for r in records if r.status in ("holds", "fails")}
        assert covered == set(ALL_CHECK_IDS)

    def test_example_form_checks_produce_the_designed_failures(self, records):
        ex_fails = {(r.ring, r.kind) for r in records
                    if r.id == "T24" and r.status == "fails"}
        assert ("Z2xZ2xZ2", "min") in ex_fails
        for kind in ("prp", "prn", "fgn", "rad"):
            assert ("Z36", kind) in ex_fails

    def test_theorem_failures_are_confined_to_known_margins(self, records):
        bad = {(r.id, r.ring, r.kind) for r in records
               if r.status == "fails" and REGISTRY[r.id].form == "theorem"}
        assert {cid for cid, _r, _k in bad} == {"T06", "T08", "T19", "T20", "T21", "T22"}
        # every margin failure happens on a spectrum without partition of unity,
        # except the localization/quotient reflection failures (T19-T22)
        from conftest import get_ring
        for cid, rl, kind in bad:
            if cid in ("T06", "T08"):
                assert not has_partition_of_unity(make_spectrum(get_ring(rl), kind))

    def test_no_error_records_in_default_suite(self, records):
        assert all(r.status != "error" for r in records)

    def test_determinism_in_process(self, records):
        again = run_suite(SuiteConfig())
        assert [r.to_json() for r in records] == [r.to_json() for r in again]

    def test_error_isolation(self):
        records = run_suite(SuiteConfig(ring_exprs=("Z4", "Z999"), checks=("T09",)))
        errors = [r for r in records if r.status == "error"]
        assert len(errors) == 1 and errors[0].ring == "Z999"
        assert any(r.ring == "Z4" and r.status in ("holds", "vacuous") for r in records)

    def test_record_round_trip(self, records):
        for r in records[:50]:
            assert SuiteRecord.from_json(r.to_json()) == r

    def test_empty_ring_list(self):
        assert run_suite(SuiteConfig(ring_exprs=())) == []


class TestHomeomorphism:
    def test_identity(self, ring):
        T = generate_topology(make_spectrum(ring("Z12"), "prp"))
        assert verify_homeomorphism(range(len(T.spectrum)), T, T)

    def test_discrete_vs_sierpinski(self, ring):
        T1 = generate_topology(make_spectrum(ring("Z6"), "max"))
        T2 = generate_topology(make_spectrum(ring("Z4"), "prp"))
        assert not verify_homeomorphism((0, 1), T1, T2)
        assert not verify_homeomorphism((1, 0), T1, T2)

    def test_wrong_arity(self, ring):
        T = generate_topology(make_spectrum(ring("Z12"), "prp"))
        assert not verify_homeomorphism((0,), T, T)


def _transport_homeomorphism(f, T1, T2):
    """verify_homeomorphism by transporting every closed set both ways."""
    n1, n2 = len(T1.spectrum), len(T2.spectrum)
    f = tuple(f)
    if len(f) != n1 or n1 != n2 or len(set(f)) != n1:
        return False
    closed1, closed2 = set(T1.closed_masks), set(T2.closed_masks)
    for c in closed1:
        if sum(1 << f[i] for i in range(n1) if c >> i & 1) not in closed2:
            return False
    for c in closed2:
        if sum(1 << i for i in range(n1) if c >> f[i] & 1) not in closed1:
            return False
    return True


def _transport_embedding(T_big, big_bits, T_small):
    """_embedding_failure by transporting every closed set: the images of
    T_small's closed sets against the traces of T_big's on the image, then
    the preimages of those traces."""
    if len(set(big_bits)) != len(big_bits):
        return "map not injective"
    image = sum(1 << b for b in big_bits)
    traces = {c & image for c in T_big.closed_masks}
    for D in T_small.closed_masks:
        if sum(1 << b for i, b in enumerate(big_bits) if D >> i & 1) not in traces:
            return "image of a closed set is not closed in the subspace"
    for t in traces:
        if not T_small.is_closed(sum(1 << i for i, b in enumerate(big_bits) if t >> b & 1)):
            return "preimage of a closed set is not closed"
    return ""


class TestHomeomorphismReference:
    """The order-based homeomorphism tests against closed-set transport on
    suite spaces of at most 12 points."""

    @pytest.fixture(scope="class")
    def spaces(self, suite_rings):
        out = []
        for R in suite_rings:
            for kind in ALL_KINDS:
                spec = make_spectrum(R, kind)
                if 0 < len(spec) <= 12:
                    out.append(generate_topology(spec))
        return out

    def test_bijections(self, spaces):
        rng = random.Random(5)
        outcomes = set()
        for T1 in spaces:
            n = len(T1.spectrum)
            partners = [T for T in spaces if len(T.spectrum) == n]
            maps = [tuple(range(n))] + [tuple(rng.sample(range(n), n)) for _ in range(8)]
            for T2 in rng.sample(partners, min(6, len(partners))) + [T1]:
                for f in maps:
                    got = verify_homeomorphism(f, T1, T2)
                    assert got == _transport_homeomorphism(f, T1, T2), (
                        T1.spectrum.label, T2.spectrum.label, f)
                    outcomes.add(got)
        assert outcomes == {True, False}

    def test_maps_into_larger_spaces(self, spaces):
        rng = random.Random(7)
        cases = []
        for T_small in spaces:
            n = len(T_small.spectrum)
            for T_big in rng.sample(spaces, 12):
                m = len(T_big.spectrum)
                if m < n:
                    continue
                cases.append((T_big, tuple(rng.sample(range(m), n)), T_small))
                cases.append((T_big, tuple(rng.randrange(m) for _ in range(n)), T_small))
        # inclusions of one ring's spectra into another's are embeddings
        for T_small in spaces:
            for T_big in spaces:
                big = T_big.spectrum
                if big.ring is T_small.ring and all(
                        big.contains_ideal(p) for p in T_small.spectrum.points):
                    bits = tuple(big.index[p] for p in T_small.spectrum.points)
                    cases.append((T_big, bits, T_small))
        outcomes = set()
        for T_big, bits, T_small in cases:
            got = _embedding_failure(T_big, bits, T_small)
            assert got == _transport_embedding(T_big, bits, T_small), (
                T_big.spectrum.label, bits, T_small.spectrum.label)
            outcomes.add(got)
        assert outcomes == {"", "map not injective",
                            "image of a closed set is not closed in the subspace",
                            "preimage of a closed set is not closed"}


def _relabelled(R, perm):
    """R on permuted element indices: element x of R becomes perm[x].  The
    copy keeps the names but carries no product components."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return FiniteRing(perm[R.add[np.ix_(inv, inv)]], perm[R.mul[np.ix_(inv, inv)]],
                      perm[R.zero], perm[R.one], f"{R.label}~",
                      names=[R.names[x] for x in inv])


def _statuses(R):
    return {(cid, kind.value): run_check(cid, R, kind).status
            for cid in ALL_CHECK_IDS for kind in ALL_KINDS}


@lru_cache(maxsize=None)
def _suite_statuses(expr):
    return _statuses(get_ring(expr))


class TestRelabelling:
    """Statuses do not depend on how the elements are numbered."""

    @pytest.mark.parametrize("expr", ["Z12", "Z2xZ4", "Z2xZ2xZ2", "Z36"])
    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_statuses_survive_a_permutation(self, expr, data):
        R = get_ring(expr)
        before = _suite_statuses(expr)
        shuffles = st.permutations(range(R.size)).filter(lambda p: p != sorted(p))
        after = _statuses(_relabelled(R, data.draw(shuffles)))
        changed = {key for key in before if before[key] != after[key]}
        if R.components is None:
            assert not changed
        else:  # T17 instantiates only on rings that carry their factors
            assert {cid for cid, _ in changed} <= {"T17"}
            assert all(after[key] == "vacuous" for key in after if key[0] == "T17")

class TestSearch:
    def test_mip_failures_among_zmod(self):
        hits = search_counterexamples("T03", "zmod:2..20", kinds=("prp",))
        labels = {h["ring"] for h in hits}
        assert "Z12" in labels and "Z6" in labels
        assert "Z8" not in labels  # chain lattice satisfies meet inclusion
        z12 = next(h for h in hits if h["ring"] == "Z12")
        assert [z12["witness"][k]["ideal"] for k in ("a", "b", "s")] == \
            ["⟨2⟩", "⟨3⟩", "⟨6⟩"]

    def test_strongly_irreducible_never_fails(self):
        assert search_counterexamples("T03", "zmod:2..20", kinds=("irs",)) == []

    def test_fields_are_empty_for_all_checks(self):
        for cid in ALL_CHECK_IDS:
            assert search_counterexamples(cid, "exprs:Z2,Z3,Z5") == [], cid

    def test_exprs_family_keeps_commas_inside_parentheses(self):
        hits = search_counterexamples("T03", "exprs:Z6xZ6/((2,2)),Z12@(2,5),Z12",
                                      kinds=("prp",))
        # Z12@(2,5) is the field Z3, so only the other two fail
        assert [h["ring"] for h in hits] == ["Z6xZ6/((2,2))", "Z12"]

    def test_results_ordered_by_point_count(self):
        hits = search_counterexamples("T03", "zmod:2..40", kinds=("prp",))
        sizes = [h["points"] for h in hits]
        assert sizes == sorted(sizes)
        z36 = next(h for h in hits if h["ring"] == "Z36")
        assert [z36["witness"][k]["ideal"] for k in ("a", "b", "s")] == \
            ["⟨2⟩", "⟨3⟩", "⟨6⟩"]
