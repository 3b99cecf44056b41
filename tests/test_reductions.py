"""The reduced check bodies against the closed-family scans they replace.

Each check that once quantified over the enumerated closed family now reads
the point closures ``TopologySpace.above``, the subbase or the kernel-image
index table.  The scans are kept here as references, run over the up-sets
from ``oracles.up_set_family`` and the kernel image from
``oracles.kernel_image_closure``, and compared, status and witness, with the
library on every suite space of at most 16 points and on every space of
``Z2xZ2xZ2xZ2``.  T06's two pair laws, each one boolean-matrix compare, and
T18, decided by each hom's adjunction table, are compared with the per-pair
and per-point loops, kept here as references.
"""

import hashlib
from collections import Counter
from functools import lru_cache

import pytest

from conftest import get_ring
from idealspaces import (
    ALL_CHECK_IDS,
    ALL_KINDS,
    DEFAULT_CAPS,
    DEFAULT_SUITE_EXPRS,
    Caps,
    CapExceeded,
    SuiteConfig,
    check_mip,
    enumerate_ideals,
    generate_topology,
    image_of_kernel,
    irreducible_closed_sets,
    is_connected,
    is_t0,
    is_t1,
    is_von_neumann_regular,
    kuratowski_union_axiom,
    make_spectrum,
    parse_ring_expression,
    run_check,
    run_suite,
    strongly_disconnects,
)
from idealspaces.reports import FAILS, HOLDS, VACUOUS, VerdictReport, w_ideal, w_point_set
from idealspaces.rings import Ideal
from idealspaces.spectra import PointSet
from idealspaces.topology import TopologySpace
from idealspaces.verify import HomView, _hom_views
from oracles import kernel_image_closure, up_set_family


def _order(ideals):
    return sorted(ideals, key=lambda a: (-len(a.members), sorted(a.members)))


def _hull(spec, members):
    return sum(1 << j for j, p in enumerate(spec.points) if members <= p.members)


def _smallest_containing(lat, elements):
    """Member set of the smallest ideal of the lattice holding the elements."""
    return min((a.members for a in lat.ideals if a.members >= elements), key=len)


def _popcount(m):
    return bin(m).count("1")


@lru_cache(maxsize=None)
def _up_sets(spec):
    return tuple(sorted(up_set_family(spec)))


def _spaces():
    specs = [make_spectrum(get_ring(e), k) for e in DEFAULT_SUITE_EXPRS for k in ALL_KINDS]
    specs = [s for s in specs if 0 < len(s) <= 16]
    specs += [make_spectrum(get_ring("Z2xZ2xZ2xZ2"), k) for k in ALL_KINDS]
    return [s for s in specs if len(s)]


# ---------------------------------------------------------------------------
# the closed-family scans


def _scan_is_connected(spec):
    fam = _up_sets(spec)
    closed = set(fam)
    for a in fam:
        comp = spec.full_mask & ~a
        if a and comp and comp in closed:
            return VerdictReport("connected", FAILS, witness={
                "A": w_point_set(PointSet(spec, a)),
                "B": w_point_set(PointSet(spec, comp))},
                notes="clopen partition found")
    return VerdictReport("connected", HOLDS)


def _scan_base_disconnects(spec):
    """The first disjoint covering pair of up-sets in (-size, mask) order."""
    ordered = sorted((m for m in _up_sets(spec) if m), key=lambda m: (-_popcount(m), m))
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            if a & b == 0 and a | b == spec.full_mask:
                return VerdictReport(
                    "strongly_disconnects", HOLDS,
                    witness={"A": w_point_set(PointSet(spec, a)),
                             "B": w_point_set(PointSet(spec, b))},
                    notes="base pair covers the space disjointly")
    return None


def _scan_t05(spec):
    kur_ok, _ = kuratowski_union_axiom(spec)
    hk_family = {_hull(spec, c) for c in kernel_image_closure(spec)}
    for c in _up_sets(spec):
        acc = spec.full_mask
        for d in hk_family:
            if c & ~d == 0:
                acc &= d
        if acc != c:
            if kur_ok:
                return FAILS, {"closed_set": w_point_set(PointSet(spec, c))}
            return HOLDS, None
    return (HOLDS, None) if kur_ok else (FAILS, {"closed_base": True, "union_axiom": False})


def _scan_t09(spec, T):
    fam = _up_sets(spec)
    n = len(spec)
    for i in range(n):
        for j in range(i + 1, n):
            if not any(bool(c >> i & 1) != bool(c >> j & 1) for c in fam):
                return FAILS, {"p": w_ideal(spec.points[i]), "q": w_ideal(spec.points[j])}
    t0 = is_t0(T)
    return (HOLDS, None) if t0.holds else (FAILS, t0.witness)


def _scan_t11(spec, T):
    irr = {ps.mask for ps, _g in irreducible_closed_sets(T)}
    for p in _order(spec.points):
        i = spec.index[p]
        hma = _hull(spec, p.members)
        cl = spec.full_mask
        for c in _up_sets(spec):
            if c >> i & 1:
                cl &= c
        if cl != hma:
            return FAILS, {"point": w_ideal(p),
                           "closure": w_point_set(PointSet(spec, cl)),
                           "hull": w_point_set(PointSet(spec, hma))}
        if hma not in irr:
            return FAILS, {"point": w_ideal(p), "part": "hull not irreducible"}
    return HOLDS, None


def _scan_t13(spec):
    """The base-pair law over every pair of up-sets, each decomposed into the
    closures of its minimal points, then connectedness against the base."""
    lat = spec.lattice
    base = _up_sets(spec)
    base_set = set(base)
    n = len(spec)
    pts = list(spec.points)
    above = [_hull(spec, p.members) for p in pts]
    below = [sum(1 << i for i in range(n) if above[i] >> j & 1) for j in range(n)]
    decomp = [[j for j in range(n) if B & below[j] == 1 << j] for B in base]
    sum_hulls = [[_hull(spec, _smallest_containing(lat, p.members | q.members)) for q in pts]
                 for p in pts]
    for A, ka in zip(base, decomp):
        for B, kb in zip(base, decomp):
            if A & B not in base_set:
                return FAILS, {"part": "base closed under ∩", "A": A, "B": B}
            got = 0
            for j in ka:
                for k in kb:
                    got |= sum_hulls[j][k]
            if got != A & B:
                return FAILS, {"part": "∪h(aᵢ) ∩ ∪h(bⱼ) = ∪h(aᵢ+bⱼ)", "A": A, "B": B}
    disconnected = _scan_is_connected(spec).fails
    sd = _scan_base_disconnects(spec)
    if disconnected != (sd is not None):
        return FAILS, None
    return HOLDS, None


def _scan_t18(R, kind, spec):
    lat = enumerate_ideals(R)
    views = _hom_views(R, DEFAULT_CAPS)
    checked = 0
    for v in views:
        c = v.at(kind, DEFAULT_CAPS)
        if c is None:
            continue
        bits = c.bits
        other = make_spectrum(v.hom.target, kind)

        def pull(mask):
            return sum(1 << j for j, b in enumerate(bits) if mask >> b & 1)

        other_closed = set(_up_sets(other))
        for C in _up_sets(spec):
            if pull(C) not in other_closed:
                return FAILS, {"hom": v.hom.label,
                               "closed_set": w_point_set(PointSet(spec, C))}
        for a in lat.ideals:
            image = {v.hom.map[x] for x in a.members}
            pushed = _smallest_containing(enumerate_ideals(v.hom.target), image)
            if pull(_hull(spec, a.members)) != _hull(other, pushed):
                return FAILS, {"hom": v.hom.label, "a": w_ideal(a),
                               "part": "(f*)⁻¹(h(a)) = h(⟨f(a)⟩)"}
        checked += 1
    return (HOLDS if checked else VACUOUS), None


# ---------------------------------------------------------------------------
# the frozenset kernel-image bodies


def _frozenset_check_mip(spec, imk):
    imk = _order(imk)
    points = _order(spec.points)
    for a in imk:
        for b in imk:
            meet = a.members & b.members
            for s in points:
                if meet <= s.members and not a.members <= s.members \
                        and not b.members <= s.members:
                    return VerdictReport(
                        "mip", FAILS,
                        witness={"a": w_ideal(a), "b": w_ideal(b), "s": w_ideal(s)},
                        notes=f"{a.name} ∩ {b.name} ⊆ {s.name} but neither factor is contained")
    return VerdictReport("mip", HOLDS, notes=f"{len(imk)} kernel-image ideals checked")


def _frozenset_union_axiom(spec, imk):
    imk = _order(imk)
    for a in imk:
        for b in imk:
            if _hull(spec, a.members & b.members) != \
                    _hull(spec, a.members) | _hull(spec, b.members):
                return False, (a.members, b.members)
    return True, None


def _suite_views():
    """Each suite ring with its canonical quotient and localization views."""
    for expr in DEFAULT_SUITE_EXPRS:
        R = get_ring(expr)
        yield R, _hom_views(R, DEFAULT_CAPS)


def _kernel_rings():
    """The suite rings and every canonical quotient and localization of them."""
    out = []
    for R, views in _suite_views():
        out += [R] + [v.hom.target for v in views]
    return out


def test_contractions_contain_the_kernel_and_avoid_the_mult_set():
    """The lemmas T19 and T21 rest on without restating them, on the views'
    contraction tables: every f⁻¹(b) contains ker f = f⁻¹(0), and for
    R -> R_S the contraction of every proper ideal of R_S is disjoint from S
    (each f(s) is a unit)."""
    localizations = 0
    for R, views in _suite_views():
        masks = enumerate_ideals(R).masks
        for v in views:
            assert all(v.kernel.mask & ~masks[c] == 0 for c in v.contract), v.hom.label
            if v.mult_set is not None:
                s_mask = sum(1 << x for x in v.mult_set.members)
                # the target lattice is in canonical order, R last
                assert all(masks[c] & s_mask == 0 for c in v.contract[:-1]), v.hom.label
                localizations += 1
    assert localizations > 0


class TestKernelImage:
    @pytest.fixture(scope="class")
    def spectra(self):
        return [make_spectrum(R, k) for R in _kernel_rings() for k in ALL_KINDS]

    def test_index_table_matches_the_closure(self, spectra):
        assert len(spectra) > 1000
        for spec in spectra:
            got = [spec.lattice.ideals[i].members for i in spec.kernel_image]
            assert set(got) == kernel_image_closure(spec), spec.label
            assert len(got) == len(set(got)), spec.label
            expected = sorted(kernel_image_closure(spec), key=lambda m: (len(m), sorted(m)))
            assert [a.members for a in image_of_kernel(spec)] == expected, spec.label

    def test_mip_and_union_axiom_match_the_frozenset_bodies(self, spectra):
        outcomes = set()
        for spec in spectra:
            imk = [Ideal(spec.ring, m) for m in kernel_image_closure(spec)]
            mip = check_mip(spec)
            assert mip == _frozenset_check_mip(spec, imk), spec.label
            ok, pair = kuratowski_union_axiom(spec)
            got = (ok, None if pair is None else tuple(a.members for a in pair))
            assert got == _frozenset_union_axiom(spec, imk), spec.label
            outcomes.add((mip.status, ok))
        assert outcomes == {(HOLDS, True), (FAILS, False)}

    def test_t04_sides_match_the_closure(self, spectra):
        outcomes = set()
        for spec in spectra:
            if not len(spec):
                continue
            pts = {p.members for p in spec.points}
            side_eq = kernel_image_closure(spec) - {frozenset(spec.ring.elements)} == pts
            side_closed = all(p & q in pts for p in pts for q in pts)
            assert side_eq == side_closed, spec.label
            rep = run_check("T04", spec.ring, spec.kind)
            assert rep.status == HOLDS, spec.label
            assert rep.notes.startswith(f"both sides {'true' if side_eq else 'false'};")
            outcomes.add(side_eq)
        assert outcomes == {True, False}


class TestClosedFamilyReference:
    @pytest.fixture(scope="class")
    def spaces(self):
        return [(s, generate_topology(s)) for s in _spaces()]

    def test_connectedness(self, spaces):
        outcomes = set()
        for spec, T in spaces:
            conn = is_connected(T)
            assert conn == _scan_is_connected(spec), spec.label
            sd = strongly_disconnects(T, "base")
            ref = _scan_base_disconnects(spec)
            if ref is None:
                assert sd.fails and sd.witness == {"family": "base", "components": 1}
            else:
                assert sd == ref, spec.label
            outcomes.add((conn.status, sd.status))
        assert outcomes == {(HOLDS, FAILS), (FAILS, HOLDS)}

    def test_closedness_and_discreteness(self, spaces):
        outcomes = set()
        for spec, T in spaces:
            fam = set(_up_sets(spec))
            if len(spec) <= 12:
                assert [T.is_closed(m) for m in range(1 << len(spec))] == \
                    [m in fam for m in range(1 << len(spec))], spec.label
            assert T.is_discrete == (len(fam) == 1 << len(spec)), spec.label
            outcomes.add(T.is_discrete)
        assert outcomes == {True, False}

    def test_t1_witness_is_the_first_open_point(self, spaces):
        for spec, T in spaces:
            open_points = [p for p in _order(spec.points)
                           if _hull(spec, p.members) != 1 << spec.index[p]]
            rep = is_t1(T)
            if open_points:
                assert rep.witness["point"] == w_ideal(open_points[0]), spec.label
            else:
                assert rep.holds, spec.label

    def test_closed_family_cap_is_exact(self, spaces):
        spec = next(s for s, _T in spaces if len(s) > 10)
        n = len(_up_sets(spec))
        assert TopologySpace(spec, n).closed_masks == _up_sets(spec)
        with pytest.raises(CapExceeded, match=rf"^closed base exceeds cap {n - 1}$"):
            TopologySpace(spec, n - 1).closed_masks

    def test_check_bodies(self, spaces):
        assert len(spaces) > 100
        for spec, T in spaces:
            R, kind = spec.ring, spec.kind
            refs = {"T05": _scan_t05(spec), "T09": _scan_t09(spec, T),
                    "T11": _scan_t11(spec, T), "T13": _scan_t13(spec),
                    "T18": _scan_t18(R, kind, spec)}
            for cid, (status, witness) in refs.items():
                rep = run_check(cid, R, kind)
                assert (rep.status, rep.witness) == (status, witness), (cid, spec.label)


def test_no_check_reads_the_closed_family():
    """With a closed-family cap every read would exceed, the registry gives
    the records it gives under the default caps."""
    exprs = ("Z12", "Z2xZ2xZ2", "Z6xZ6")
    records = run_suite(SuiteConfig(ring_exprs=exprs, caps=Caps(max_closed_sets=1)))
    assert records == run_suite(SuiteConfig(ring_exprs=exprs))


class TestRaisedCaps:
    """A raised closed-family cap, run on the reduced bodies."""

    # sha256 of the run_suite JSON lines under RAISED: the records of the
    # closed-family scans, except that the 14 T01 notes carry the exhaustive
    # wording of the reduced T01 where the scans' T01 sampled; see the test's
    # docstring
    RAISED = Caps(max_closed_sets=10**6)
    DIGESTS = {
        "Z4xZ4xZ4": "e3d8ea822c32cc12fb162bcdf77a60534a71de9a09e861069a589dc7708b827c",
        "Z2xZ2xZ2xZ2xZ2": "e4bbb345f27067b3ed7cd0c12378a836975f52cbf9f28309409a56fc7ffa3ea8",
    }

    @pytest.mark.parametrize("expr", sorted(DIGESTS))
    def test_reports_match_the_scan_digests(self, expr):
        """Every record of the full registry equals the closed-family scans',
        T01's notes aside.

        The scans take about two minutes on Z2xZ2xZ2xZ2xZ2.  To regenerate a
        digest, run the command below from the repository root.  To certify
        it, print the records instead of their digest and diff them against
        the records of a tree whose checks still scan ``closed_masks``: every
        differing line must be a T01 record that differs only in its notes.

            PYTHONPATH=src python -c "import hashlib, sys; from idealspaces import *; \\
            print(hashlib.sha256(''.join(r.to_json() + '\\n' for r in run_suite(SuiteConfig( \\
            ring_exprs=(sys.argv[1],), caps=Caps(max_closed_sets=10**6)))) \\
            .encode()).hexdigest())" Z2xZ2xZ2xZ2xZ2
        """
        records = run_suite(SuiteConfig(ring_exprs=(expr,), caps=self.RAISED))
        assert not [r for r in records if r.status == "error"]
        text = "".join(r.to_json() + "\n" for r in records)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[expr]

    @pytest.mark.parametrize("expr", sorted(DIGESTS))
    def test_default_caps_give_the_scan_digests(self, expr):
        """The default caps admit every spectrum of these rings, so the
        default report is the raised-cap one the scans certify."""
        records = run_suite(SuiteConfig(ring_exprs=(expr,), caps=DEFAULT_CAPS))
        assert not [r for r in records if r.status == "error"]
        text = "".join(r.to_json() + "\n" for r in records)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[expr]

    def test_sixty_three_points_run_without_errors_at_default_caps(self):
        # 63 points, whose closed family has M(6) - 1 = 7,828,353 up-sets
        records = run_suite(SuiteConfig(ring_exprs=("Z2xZ2xZ2xZ2xZ2xZ2",)))
        assert len(records) == 310
        assert not [r for r in records if r.status == "error"]
        assert {r.id for r in records} == set(ALL_CHECK_IDS)


# ---------------------------------------------------------------------------
# T06 against its pair loops


def _scalar_t06(R, kind):
    """T06 with both pair laws as double loops over the lattice indices."""
    spec = make_spectrum(R, kind)
    lat = spec.lattice
    L, masks, leq = lat.ideals, lat.masks, lat.leq
    hulls, xr, rad = spec.hulls, spec.x_radicals, lat.radical
    order = lat.witness_indices
    notes = []
    for i in order:
        if masks[i] & ~masks[xr[i]]:
            return VerdictReport("T06", FAILS, {"part": "a ⊆ √[X]a", "a": w_ideal(L[i])})
        if masks[xr[i]] & ~masks[rad[i]]:
            return VerdictReport(
                "T06", FAILS,
                {"part": "√[X]a ⊆ √a", "a": w_ideal(L[i]),
                 "x_radical": w_ideal(L[xr[i]]), "radical": w_ideal(L[rad[i]])},
                notes="h(a) is empty for a proper ideal, so √[X]a = R overshoots √a; "
                      "holds exactly when the spectrum has the partition-of-unity property")
    for i in spec.lattice_indices:
        if xr[i] != i:
            return VerdictReport("T06", FAILS, {"part": "a ∈ X ⟹ √[X]a = a", "a": w_ideal(L[i])})
    for i in range(len(L)):
        if hulls[xr[i]] != hulls[i]:
            return VerdictReport("T06", FAILS, {"part": "h(√[X]a) = h(a)", "a": w_ideal(L[i])})
    for i in range(len(L)):
        for j in range(len(L)):
            if (hulls[i] & ~hulls[j] == 0) != leq[xr[j], xr[i]]:
                return VerdictReport("T06", FAILS, {"part": "h(a)⊆h(b) ⟺ √[X]b⊆√[X]a",
                                                    "a": w_ideal(L[i]), "b": w_ideal(L[j])})
    if is_von_neumann_regular(R):
        for i in order:
            for j in order:
                if (hulls[i] & ~hulls[j] == 0) != leq[j, i]:
                    return VerdictReport(
                        "T06", FAILS,
                        {"part": "regular ring: h(a)⊆h(b) ⟺ b⊆a",
                         "a": w_ideal(L[i]), "b": w_ideal(L[j])},
                        notes="fails when some proper ideal has an empty hull")
        notes.append("regular-ring criterion checked")
    else:
        notes.append("ring not von Neumann regular; regular-ring part skipped")
    if set(hulls) != {hulls[i] for i in spec.kernel_image}:
        return VerdictReport("T06", FAILS, {"part": "C_h = C_hk"})
    return VerdictReport("T06", HOLDS, notes="; ".join(notes))


class TestT06:
    def test_matrix_compares_match_the_loops(self):
        exprs = DEFAULT_SUITE_EXPRS + ("Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2")
        outcomes = Counter()
        for R in map(get_ring, exprs):
            for kind in ALL_KINDS:
                if not make_spectrum(R, kind).points:
                    continue
                rep, ref = run_check("T06", R, kind), _scalar_t06(R, kind)
                assert (rep.status, rep.witness, rep.notes) == \
                    (ref.status, ref.witness, ref.notes), (R.label, kind)
                outcomes[rep.status, (rep.witness or {}).get("part")] += 1
        # no real instance reaches a failing pair law: the test below does
        assert set(outcomes) == {(HOLDS, None), (FAILS, "√[X]a ⊆ √a")}

    def test_a_wrong_x_radical_pins_the_first_failing_pair(self):
        # √[X]⟨4⟩ = ⟨2⟩ on the prime spectrum of Z12; ⟨4⟩ lies between ⟨4⟩
        # and √⟨4⟩ and has the same hull, so only the order law can see it,
        # first at b = o: h(⟨4⟩) ⊆ h(o) but √[X]o = ⟨6⟩ ⊄ ⟨4⟩
        R = parse_ring_expression("Z12")
        spec = make_spectrum(R, "spc")
        lat = spec.lattice
        four = next(i for i, a in enumerate(lat.ideals) if a.name == "⟨4⟩")
        xr = list(spec.x_radicals)
        assert lat.ideals[xr[four]].name == "⟨2⟩"
        xr[four] = four
        spec.x_radicals = tuple(xr)
        rep = run_check("T06", R, "spc")
        assert rep == _scalar_t06(R, "spc")
        assert rep.witness == {"part": "h(a)⊆h(b) ⟺ √[X]b⊆√[X]a",
                               "a": w_ideal(lat.ideals[four]), "b": w_ideal(lat.ideals[0])}


# ---------------------------------------------------------------------------
# T18 against its per-point loop


def _loop_t18(R, kind):
    """T18 as the per-point loop over every gated view and source ideal a:
    the pull-back of h(a) through the contraction against the hull of
    ⟨f(a)⟩."""
    spec = make_spectrum(R, kind)
    gated = [(v, c) for v in _hom_views(R, DEFAULT_CAPS) if (c := v.at(kind, DEFAULT_CAPS))]
    for v, c in gated:
        for i, a in enumerate(spec.lattice.ideals):
            pulled = sum(1 << j for j, b in enumerate(c.bits) if spec.hulls[i] >> b & 1)
            if pulled != c.target.hulls[v.pushed[i]]:
                return FAILS, {"hom": v.hom.label, "a": w_ideal(a),
                               "part": "(f*)⁻¹(h(a)) = h(⟨f(a)⟩)"}
    return (HOLDS if gated else VACUOUS), None


class TestT18AdjointTable:
    """Every real instance holds T18, so a table that never reports a miss
    would pass every reference; a wrong ``pushed`` or ``contract`` entry,
    written before anything reads it, must fail where the loop fails."""

    @pytest.mark.parametrize("table", ["pushed", "contract"])
    @pytest.mark.parametrize("view", [0, 1])  # R -> R/o, R -> R/a for the next ideal a
    @pytest.mark.parametrize("expr", ["Z12", "Z6xZ6", "Z2xZ2xZ2xZ2"])
    def test_a_wrong_entry_fails_where_the_loop_fails(self, expr, view, table):
        R = parse_ring_expression(expr)  # fresh: no view has built a table
        v = _hom_views(R, DEFAULT_CAPS)[view]
        entries = list(getattr(v, table))
        entries[1] = 0 if entries[1] else 1
        setattr(v, table, tuple(entries))
        outcomes = set()
        for kind in ALL_KINDS:
            if not make_spectrum(R, kind).points:
                continue
            rep = run_check("T18", R, kind)
            assert (rep.status, rep.witness) == _loop_t18(R, kind), kind
            gated = v.at(kind, DEFAULT_CAPS) is not None
            outcomes.add((rep.status, gated))
        assert (FAILS, True) in outcomes
        if table == "contract":
            # the wrong column is not a point of every kind
            assert v.adjoint_misses and (HOLDS, True) in outcomes

    def test_each_table_is_built_once_per_hom(self, monkeypatch):
        built = Counter()
        prop = HomView.__dict__["adjoint_misses"]
        build = prop.func
        monkeypatch.setattr(prop, "func", lambda v: built.update([id(v)]) or build(v))
        R = parse_ring_expression("Z6xZ6")
        kinds = [k for k in ALL_KINDS if make_spectrum(R, k).points]
        assert len(kinds) > 1
        for kind in kinds:
            run_check("T18", R, kind)
        views = _hom_views(R, DEFAULT_CAPS)
        gated = {id(v) for v in views if any(v.at(k, DEFAULT_CAPS) for k in kinds)}
        assert gated and set(built) == gated
        assert set(built.values()) == {1}
