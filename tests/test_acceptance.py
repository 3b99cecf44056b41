"""Acceptance criteria, one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 6a is implemented faithfully and marked strict-xfail: the T1
characterization is falsified on antichain spectra without maximal points
(e.g. the minimal-ideal spectrum of Z12 is discrete, hence T1, yet none of
its points is maximal).  See the README section "Findings (honest failures)"
for the analysis.
"""

import os
import subprocess
import sys
import time

import pytest

from idealspaces import (
    ALL_KINDS,
    check_mip,
    closure_of,
    contraction,
    enumerate_ideals,
    extract_idempotent,
    generate_ideal,
    generate_topology,
    hull,
    irreducible_closed_sets,
    is_connected,
    is_sober,
    is_t0,
    is_t1,
    kernel,
    kuratowski_union_axiom,
    localize,
    make_quotient,
    make_spectrum,
    multiplicative_closure,
    run_check,
    unit_ideal,
    zero_ideal,
)
from idealspaces.spectra import PointSet, full_point_set, hull_mask
from conftest import get_ring
from oracles import brute_force_ideal_sets

SUITE = ("Z2", "Z4", "Z6", "Z8", "Z12", "Z36", "Z2xZ2xZ2", "Z2xZ4", "Z6xZ6")


def _report(cid, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {cid}: {detail}")
    assert ok, f"acceptance {cid}: {detail}"


def _instances():
    for expr in SUITE:
        R = get_ring(expr)
        for kind in ALL_KINDS:
            yield R, kind


def test_criterion_01_exact_min_counterexample():
    t0 = time.perf_counter()
    R = get_ring("Z2xZ2xZ2")
    rep = check_mip(make_spectrum(R, "min"))
    elapsed = time.perf_counter() - t0
    witness = [rep.witness[k]["ideal"] for k in ("a", "b", "s")]
    ok = (rep.fails and elapsed < 1.0 and
          witness == ["⟨(1,0,0)⟩", "⟨(0,1,0)⟩", "⟨(0,0,1)⟩"])
    _report("1", ok, f"Min(Z2xZ2xZ2) witness {witness} in {elapsed * 1000:.0f} ms")


def test_criterion_02_z36_analog():
    R = get_ring("Z36")
    for kind in ("prp", "prn", "fgn", "rad"):
        rep = check_mip(make_spectrum(R, kind))
        witness = [rep.witness[k]["ideal"] for k in ("a", "b", "s")]
        if not (rep.fails and witness == ["⟨2⟩", "⟨3⟩", "⟨6⟩"]):
            _report("2", False, f"{kind}: {rep.status} witness {witness}")
    _report("2", True, "meet inclusion fails on Z36 with (⟨2⟩,⟨3⟩,⟨6⟩) "
                       "for prp, prn, fgn, rad")


def test_criterion_03_closure_criterion_equivalence():
    disagreements = 0
    exhaustive_covered = True
    for R, kind in _instances():
        spec = make_spectrum(R, kind)
        if check_mip(spec).holds != kuratowski_union_axiom(spec)[0]:
            disagreements += 1
        if spec.points:
            rep = run_check("T03", R, kind)
            if not rep.holds:
                disagreements += 1
            if len(spec) <= 10 and "exhaustive subset-pair check" not in rep.notes:
                exhaustive_covered = False
    _report("3", disagreements == 0 and exhaustive_covered,
            f"{disagreements} disagreements across "
            f"{len(SUITE) * len(ALL_KINDS)} instances; exhaustive pair check "
            f"ran wherever |X| <= 10")


def test_criterion_04_hull_kernel_invariants():
    checked = 0
    for R, kind in _instances():
        spec = make_spectrum(R, kind)
        if spec.points:
            rep = run_check("T01", R, kind)
            if not rep.holds:
                _report("4", False, f"{R.label}/{kind}: {rep.status} {rep.witness}")
            checked += 1
        else:
            if not hull(spec, unit_ideal(R)).is_empty:
                _report("4", False, f"{R.label}/{kind}: h(R) nonempty")
            if hull(spec, zero_ideal(R)).mask != spec.full_mask:
                _report("4", False, f"{R.label}/{kind}: h(o) != X")
            if kernel(PointSet(spec, 0)).proper:
                _report("4", False, f"{R.label}/{kind}: k(∅) != R")
    _report("4", True, f"Galois connection and hull/kernel identities hold on "
                       f"{checked} nonempty instances (empty ones checked directly)")


def test_criterion_05_t0_everywhere():
    bad = [(R.label, kind.value) for R, kind in _instances()
           if not is_t0(generate_topology(make_spectrum(R, kind))).holds]
    _report("5", not bad, f"all {len(SUITE) * len(ALL_KINDS)} ideal spaces are T0"
            if not bad else f"not T0: {bad}")


@pytest.mark.xfail(strict=True, reason=(
    "The T1 characterization (T1 iff X ⊆ Max) is falsified on the suite: "
    "minimal-ideal spectra are antichains, hence discrete and T1, but their "
    "points are not maximal (Min(Z12) = {⟨6⟩, ⟨4⟩} is the smallest witness). "
    "The necessity proof needs every maximal ideal above a point to lie in "
    "the spectrum, which holds exactly under partition of unity."))
def test_criterion_06a_t1_characterization_everywhere():
    mismatches = []
    for R, kind in _instances():
        spec = make_spectrum(R, kind)
        T = generate_topology(spec)
        from idealspaces import classify
        side_max = all(classify(p, "max") for p in spec.points)
        if is_t1(T).holds != side_max:
            mismatches.append((R.label, kind.value))
    _report("6a", not mismatches, f"T1 == (X ⊆ Max) mismatches: {mismatches}")


def test_criterion_06b_max_z6_discrete():
    T = generate_topology(make_spectrum(get_ring("Z6"), "max"))
    ok = is_t1(T).holds and T.is_discrete
    _report("6b", ok, "Max(Z6) is T1 and discrete")


def test_criterion_06c_prp_z4_not_t1():
    rep = is_t1(generate_topology(make_spectrum(get_ring("Z4"), "prp")))
    ok = rep.fails and rep.witness["point"]["ideal"] == "o"
    _report("6c", ok, "Prp(Z4) is not T1; witness o is not closed")


def test_criterion_07_sobriety():
    for R, kind in _instances():
        spec = make_spectrum(R, kind)
        T = generate_topology(spec)
        lat = enumerate_ideals(R)
        sober = is_sober(T).holds
        criterion = True
        for ps, _gens in irreducible_closed_sets(T):
            if not any(hull_mask(spec, a) == ps.mask and a in ps.ideals
                       for a in lat.ideals):
                criterion = False
                break
        if sober != criterion:
            _report("7", False, f"{R.label}/{kind.value}: sober={sober} "
                                f"criterion={criterion}")
    for expr in SUITE:
        for kind in ("irs", "prp"):
            T = generate_topology(make_spectrum(get_ring(expr), kind))
            if not is_sober(T).holds:
                _report("7", False, f"{kind}({expr}) not sober")
    _report("7", True, "is_sober matches the hull criterion on every instance; "
                       "Irs and Prp spaces are sober throughout")


def test_criterion_08_connectedness():
    for expr in SUITE:
        R = get_ring(expr)
        for kind in ("prp", "fgn", "prn"):
            spec = make_spectrum(R, kind)
            if zero_ideal(R) not in spec.points:
                _report("8", False, f"{kind}({expr}) misses the zero ideal")
            if not is_connected(generate_topology(spec)).holds:
                _report("8", False, f"{kind}({expr}) disconnected")
    Z4 = get_ring("Z4")
    spec = make_spectrum(Z4, "max")
    T = generate_topology(spec)
    converse_falsified = (len(spec) == 1 and is_connected(T).holds
                          and zero_ideal(Z4) not in spec.points)
    _report("8", converse_falsified,
            "kinds containing o are connected on every suite ring; Max(Z4) is a "
            "connected one-point space whose point is not o")


def test_criterion_09_strong_disconnection_and_idempotents():
    from idealspaces import strongly_disconnects
    Z6 = get_ring("Z6")
    T = generate_topology(make_spectrum(Z6, "max"))
    sd = strongly_disconnects(T, "subbase")
    e = extract_idempotent(T, (generate_ideal(Z6, [2]), generate_ideal(Z6, [3])))
    ok1 = sd.holds and e == 4 and Z6.mul[e, e] == e and e not in (Z6.zero, Z6.one)
    P = get_ring("Z6xZ6")
    spec = make_spectrum(P, "prp")
    a = generate_ideal(P, [1])   # (1,0)
    b = generate_ideal(P, [6])   # (0,1)
    ha, hb = hull(spec, a), hull(spec, b)
    uncovered = spec.full_mask & ~(ha.mask | hb.mask)
    witness_names = {p.name for p in PointSet(spec, uncovered).ideals}
    two_two = generate_ideal(P, [14])  # (2,2) has index 2 + 6*2
    ok2 = (not ha.is_empty and not hb.is_empty and ha.mask & hb.mask == 0
           and uncovered and "⟨(2,2)⟩" in witness_names
           and two_two.name == "⟨(2,2)⟩")
    _report("9", ok1 and ok2,
            f"Max(Z6) strongly disconnected, e=4; Prp(Z6xZ6) coordinate pair "
            f"misses ⟨(2,2)⟩ = 2Z6 x 2Z6")


def test_criterion_10_contraction_density_localization():
    Z12 = get_ring("Z12")
    # continuity and the quotient-space corollary on the prime spectrum
    ok_checks = run_check("T18", Z12, "spc").holds and run_check("T22", Z12, "spc").holds

    spec = make_spectrum(Z12, "spc")
    T = generate_topology(spec)
    four = generate_ideal(Z12, [4])
    Q4, f4 = make_quotient(Z12, four)
    assert len(make_spectrum(Q4, "spc")) == 1 == len(hull(spec, four))

    # density: Z12 -> Z6 is dense for Spc, Z12 -> Z4 is not
    six = generate_ideal(Z12, [6])
    Q6, f6 = make_quotient(Z12, six)
    img6 = 0
    for b in make_spectrum(Q6, "spc").points:
        img6 |= 1 << spec.index[contraction(f6, b)]
    dense6 = closure_of(T, img6).mask == spec.full_mask
    k_all = kernel(full_point_set(spec))
    ok_dense = dense6 and f6.kernel().members == six.members == k_all.members
    img4 = 0
    for b in make_spectrum(Q4, "spc").points:
        img4 |= 1 << spec.index[contraction(f4, b)]
    not_dense4 = closure_of(T, img4).mask != spec.full_mask

    # localization homeomorphism: Spc(Z12@(2)) vs {⟨3⟩}
    S = multiplicative_closure(Z12, [2])
    L, fL = localize(Z12, S)
    pts_L = make_spectrum(L, "spc").points
    avoiding = [p for p in spec.points if not (p.members & S.members)]
    three = generate_ideal(Z12, [3])
    ok_loc = (len(pts_L) == 1 and avoiding == [three]
              and contraction(fL, pts_L[0]).members == three.members
              and run_check("T21", Z12, "spc").holds)
    _report("10", ok_checks and ok_dense and not_dense4 and ok_loc,
            "continuity, quotient homeomorphism, density criterion, and "
            "localization homeomorphism all verified on Spc(Z12)")


def test_criterion_11_byte_identical_reports():
    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        return subprocess.run(
            [sys.executable, "-m", "idealspaces", "verify", "--format", "json"],
            capture_output=True, env=env, timeout=600)

    a, b = run(11), run(223)
    ok = a.stdout == b.stdout and len(a.stdout) > 10000
    _report("11", ok, f"two full-suite runs produced byte-identical JSON "
                      f"({len(a.stdout)} bytes; exit {a.returncode})")


def test_criterion_12_oracle_equivalence():
    checked = []
    for expr in SUITE:
        R = get_ring(expr)
        if R.size <= 16:
            got = {a.members for a in enumerate_ideals(R).ideals}
            if got != brute_force_ideal_sets(R):
                _report("12", False, f"{expr} lattice mismatch")
            checked.append(expr)
    _report("12", True, f"lattices match the subset-filter oracle on {checked}")
