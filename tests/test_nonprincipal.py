"""Rings that are not principal ideal rings, built from tables.

F2[x1..xk]/m², with m = (x1, …, xk), has 2^(k+1) elements c0 + Σ cᵢxᵢ over
F2 and every product xᵢxⱼ = 0.  Every F2-subspace of m is an ideal, so for
k ≥ 3 the ring has more ideals than elements and its spectra can have more
points than the ring has elements.  Its lattice and kind rows are certified
against the oracles, and the whole registry runs on it at the default caps.
"""

from collections import Counter

import pytest

from idealspaces import (
    ALL_CHECK_IDS,
    ALL_KINDS,
    REGISTRY,
    FiniteRing,
    IdealSpacesError,
    enumerate_ideals,
    run_check,
)
from oracles import brute_force_ideal_sets, pair_closure_ideal_sets, reference_classify


def square_zero_ring(k):
    """F2[x1..xk]/m² from its tables: element e has c0 = bit 0 of e and
    cᵢ = bit i, so addition is XOR and (a0 + a)(b0 + b) = a0b0 + a0b + b0a
    for a, b in m."""
    n = 1 << (k + 1)

    def mul(a, b):
        return (a & b & 1) | ((b & ~1) if a & 1 else 0) ^ ((a & ~1) if b & 1 else 0)

    def name(e):
        terms = ["1"] * (e & 1) + [f"x{i}" for i in range(1, k + 1) if e >> i & 1]
        return "+".join(terms) or "0"

    label = f"F2[{','.join(f'x{i}' for i in range(1, k + 1))}]/m^2"
    return FiniteRing([[a ^ b for b in range(n)] for a in range(n)],
                      [[mul(a, b) for b in range(n)] for a in range(n)],
                      0, 1, label, names=[name(e) for e in range(n)])


# the (check, kind) records that fail on both rings
FAILS = {("T06", "min"), ("T06", "prn"), ("T08", "min"),
         *(("T24", k) for k in ("fgn", "irr", "min", "prm", "prn", "prp"))}


@pytest.fixture(scope="module", params=[(3, 16, 17), (4, 32, 68)], ids=["k3", "k4"])
def case(request):
    k, size, ideals = request.param
    return square_zero_ring(k), size, ideals


class TestSquareZeroRings:
    def test_lattice_matches_the_oracles(self, case):
        R, size, ideals = case
        lat = enumerate_ideals(R)
        assert (R.size, len(lat)) == (size, ideals)
        assert [a.members for a in lat.ideals] == pair_closure_ideal_sets(R)
        if R.size <= 16:
            assert set(a.members for a in lat.ideals) == brute_force_ideal_sets(R)

    def test_kind_rows_match_the_per_ideal_loops(self, case):
        R, _size, _ideals = case
        lat = enumerate_ideals(R)
        sets = [a.members for a in lat.ideals]
        for kind in ALL_KINDS:
            expect = [reference_classify(R, sets, a, kind) for a in sets]
            assert [bool(lat.kind_rows[kind] >> i & 1) for i in range(len(lat))] == expect, kind

    def test_registry_runs_at_default_caps(self, case):
        R, _size, _ideals = case
        statuses, fails = Counter(), set()
        for cid in ALL_CHECK_IDS:
            for kind in ALL_KINDS:
                if REGISTRY[cid].applicable(kind):
                    try:
                        status = run_check(cid, R, kind).status
                    except IdealSpacesError:
                        status = "error"
                    statuses[status] += 1
                    if status == "fails":
                        fails.add((cid, kind.value))
        assert statuses == {"holds": 244, "vacuous": 57, "fails": 9}
        assert fails == FAILS
