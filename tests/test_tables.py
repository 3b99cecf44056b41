"""The shared tables that the check bodies read, each against an independent
route: the lattice arithmetic tables, the kind rows, the spectrum hull table,
the canonical hom views, and T01's reduced laws against the definitional
scalar loops.
"""

import gc
import random
import weakref

from idealspaces import (
    ALL_KINDS,
    DEFAULT_CAPS,
    Caps,
    PointSet,
    SpectrumKind,
    SuiteConfig,
    check_contraction_property,
    classify,
    contraction,
    enumerate_ideals,
    generate_ideal,
    hull,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    kernel,
    make_spectrum,
    parse_ring_expression,
    radical,
    run_check,
    run_suite,
    unit_ideal,
    x_radical,
    zero_ideal,
)
from idealspaces import exprs, verify
from idealspaces.reports import FAILS, HOLDS, VerdictReport, w_ideal
from idealspaces.spectra import hull_mask
from idealspaces.verify import _hom_views
from oracles import (
    brute_force_ideal_sets,
    brute_force_is_prime,
    brute_force_radical_members,
    reference_classify,
)

SAMPLE_SEED = 0x1DEA15


def _subset_samples(n_points, count):
    """All point subsets when there are at most ``count``, else a seeded
    sample of them: the reference's quantifier domain on wide spectra."""
    rng = random.Random(SAMPLE_SEED)
    total = 1 << n_points
    if total <= count:
        return list(range(total))
    return sorted({rng.randrange(total) for _ in range(count)})


def _instances(rings):
    for R in rings:
        for kind in ALL_KINDS:
            spec = make_spectrum(R, kind)
            if spec.points:
                yield R, kind, spec


class TestLatticeTables:
    def test_arithmetic_tables_match_the_ideal_builders(self, suite_rings):
        for R in suite_rings:
            lat = enumerate_ideals(R)
            L = lat.ideals
            for i, a in enumerate(L):
                for j, b in enumerate(L):
                    assert L[lat.sum[i, j]].members == ideal_sum(a, b).members
                    assert L[lat.meet[i, j]].members == ideal_intersect(a, b).members
                    assert L[lat.product[i, j]].members == ideal_product(a, b).members, \
                        (R.label, a, b)

    def test_radical_table_matches_the_oracle(self, suite_rings):
        for R in suite_rings:
            lat = enumerate_ideals(R)
            for i, a in enumerate(lat.ideals):
                got = lat.ideals[lat.radical[i]].members
                assert got == brute_force_radical_members(R, a.members), (R.label, a)
                assert got == radical(a).members

    def test_witness_indices_follow_witness_order(self, suite_rings):
        for R in suite_rings:
            lat = enumerate_ideals(R)
            order = [lat.ideals[i] for i in lat.witness_indices]
            assert [len(a) for a in order] == sorted((len(a) for a in order), reverse=True)
            assert sorted(lat.witness_indices) == list(range(len(lat)))


def _kind_row_rings(suite_rings, ring):
    """The suite rings, five larger ones, and the target of every canonical
    quotient and localization of a suite ring."""
    rings = list(suite_rings)
    rings += [ring(e) for e in ("Z64", "Z60", "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2", "Z4xZ4xZ4")]
    for R in suite_rings:
        views = _hom_views(R, DEFAULT_CAPS)
        rings += [v.hom.target for v in views]
    return rings


class TestKindRows:
    def test_rows_match_the_per_ideal_loops(self, suite_rings, ring):
        for R in _kind_row_rings(suite_rings, ring):
            lat = enumerate_ideals(R)
            sets = (brute_force_ideal_sets(R) if R.size <= 16
                    else [a.members for a in lat.ideals])
            for kind in ALL_KINDS:
                expect = [reference_classify(R, sets, a.members, kind) for a in lat.ideals]
                got = [bool(lat.kind_rows[kind] >> i & 1) for i in range(len(lat))]
                assert got == expect, (R.label, kind)
                assert [classify(a, kind) for a in lat.ideals] == expect
                assert make_spectrum(R, kind).points == tuple(
                    a for a, e in zip(lat.proper, expect) if e)

    def test_small_rows_match_the_prime_and_radical_oracles(self, suite_rings, ring):
        for R in _kind_row_rings(suite_rings, ring):
            if R.size > 16:
                continue
            lat = enumerate_ideals(R)
            nil = brute_force_radical_members(R, {R.zero})
            for i, a in enumerate(lat.ideals):
                rows = {k.value: bool(lat.kind_rows[k] >> i & 1) for k in ALL_KINDS}
                assert rows["spc"] == brute_force_is_prime(R, a.members), (R.label, a)
                is_radical = brute_force_radical_members(R, a.members) == a.members
                assert rows["rad"] == (a.proper and is_radical), (R.label, a)
                assert rows["nil"] == (a.proper and a.members <= nil), (R.label, a)


class TestHullTable:
    def test_hull_table_matches_the_per_point_loop(self, suite_rings):
        for R, kind, spec in _instances(suite_rings):
            for i, a in enumerate(enumerate_ideals(R).ideals):
                expect = 0
                for j, p in enumerate(spec.points):
                    if a <= p:
                        expect |= 1 << j
                assert spec.hulls[i] == expect, (R.label, kind, a)
                assert hull_mask(spec, a) == expect
                assert hull(spec, a).mask == expect

    def test_x_radical_table_matches_the_kernel_of_the_hull(self, suite_rings):
        for R, kind, spec in _instances(suite_rings):
            L = enumerate_ideals(R).ideals
            for i, a in enumerate(L):
                assert L[spec.x_radicals[i]].members == x_radical(spec, a).members


class TestHomViews:
    def test_views_match_contraction_and_the_property_check(self, suite_rings):
        for R in suite_rings:
            views = _hom_views(R, DEFAULT_CAPS)
            src = enumerate_ideals(R)
            for v in views:
                f = v.hom
                tgt = enumerate_ideals(f.target)
                for j, b in enumerate(tgt.ideals):
                    assert src.ideals[v.contract[j]].members == contraction(f, b).members
                for i, a in enumerate(src.ideals):
                    pushed = generate_ideal(f.target, {f(x) for x in a.members})
                    assert tgt.ideals[v.pushed[i]].members == pushed.members
                assert v.kernel.members == f.kernel().members
                # every canonical hom is onto, which T19 and T22 rely on
                assert f.is_surjective(), f.label
                for kind in ALL_KINDS:
                    c = v.at(kind, DEFAULT_CAPS)
                    fails = check_contraction_property(kind, f).fails
                    assert (c is None) == fails, (f.label, kind)
                    if c is not None:
                        spec = make_spectrum(R, kind)
                        other = make_spectrum(f.target, kind)
                        assert c.target is other
                        assert list(c.bits) == [spec.index[contraction(f, b)]
                                                for b in other.points]
                        assert c.image == sum({1 << b for b in c.bits})

    def test_no_target_topology_is_built(self, monkeypatch):
        # T18-T22 read the target spectra's tables, never their topologies
        parsed, spaces = [], []
        parse, generate = exprs.parse_ring_expression, verify.generate_topology
        monkeypatch.setattr(exprs, "parse_ring_expression",
                            lambda *args: parsed.append(parse(*args)) or parsed[-1])
        monkeypatch.setattr(verify, "generate_topology",
                            lambda spec, caps: spaces.append(spec) or generate(spec, caps))
        run_suite(SuiteConfig(ring_exprs=("Z12", "Z2xZ4")))
        targets = {id(v.hom.target) for R in parsed for v in _hom_views(R, DEFAULT_CAPS)}
        assert len(parsed) == 2 and targets and spaces
        assert not targets & {id(spec.ring) for spec in spaces}


# ---------------------------------------------------------------------------
# T01 against the scalar loops


def _scalar_t01(R, kind):
    """T01 as element-by-element loops: hulls through ``hull_mask``, the pair
    laws through the ideal builders, kernels as element-mask meets."""
    spec = make_spectrum(R, kind)
    L = enumerate_ideals(R).ideals
    hm = {a: hull_mask(spec, a) for a in L}
    full = spec.full_mask
    notes = []
    if hm[unit_ideal(R)] != 0:
        return VerdictReport("T01", FAILS, {"part": "h(R)=∅"})
    if hm[zero_ideal(R)] != full:
        return VerdictReport("T01", FAILS, {"part": "h(o)=X"})
    if kernel(PointSet(spec, 0)).proper:
        return VerdictReport("T01", FAILS, {"part": "k(∅)=R"})
    for a in L:
        for b in L:
            if a <= b and hm[b] & ~hm[a]:
                return VerdictReport("T01", FAILS, {"part": "h order-reversing",
                                                    "a": w_ideal(a), "b": w_ideal(b)})
            meet = hm[ideal_intersect(a, b)]
            if (hm[a] | hm[b]) & ~meet or meet & ~hm[ideal_product(a, b)]:
                return VerdictReport("T01", FAILS, {"part": "h(a)∪h(b) ⊆ h(a∩b) ⊆ h(ab)",
                                                    "a": w_ideal(a), "b": w_ideal(b)})
        if hm[radical(a)] & ~hm[a]:
            return VerdictReport("T01", FAILS, {"part": "h(a) ⊇ h(√a)", "a": w_ideal(a)})

    index = {a: i for i, a in enumerate(L)}
    sums = [[index[ideal_sum(a, b)] for b in L] for a in L]
    hulls = [hm[a] for a in L]
    nL = len(L)

    if nL <= 16:
        inter, sm = [full] * (1 << nL), [0] * (1 << nL)
        for m in range(1, 1 << nL):
            low = m & -m
            i, prev = low.bit_length() - 1, m ^ low
            inter[m], sm[m] = inter[prev] & hulls[i], sums[sm[prev]][i]
        bad = [m for m in range(1, 1 << nL) if inter[m] != hulls[sm[m]]]
        notes.append(f"sum identity exhaustive over 2^{nL} sublists")
    else:
        rng = random.Random(SAMPLE_SEED)
        bad = []
        for _ in range(512):
            m = rng.randrange(1 << nL)
            acc, s = full, 0
            for j in range(nL):
                if m >> j & 1:
                    acc &= hulls[j]
                    s = sums[s][j]
            if acc != hulls[s]:
                bad.append(m)
        notes.append("sum identity on 512 sampled sublists")
    if bad:
        fam = [w_ideal(L[j]) for j in range(nL) if bad[0] >> j & 1]
        return VerdictReport("T01", FAILS, {"part": "∩h(aᵢ)=h(Σaᵢ)", "family": fam})

    pmasks = [p.mask for p in spec.points]
    nX = len(pmasks)

    def k(S):
        acc = (1 << R.size) - 1
        for i in range(nX):
            if S >> i & 1:
                acc &= pmasks[i]
        return acc

    def h(emask):
        return sum(1 << i for i in range(nX) if emask & ~pmasks[i] == 0)

    exhaustive = nX <= 12
    subsets = list(range(1 << nX)) if exhaustive else _subset_samples(nX, 2048)
    for S in subsets:
        kS = k(S)
        for a in L:
            if (S & ~hm[a] == 0) != (a.mask & ~kS == 0):
                return VerdictReport("T01", FAILS, {
                    "part": "Galois connection",
                    "S": [spec.points[i].name for i in range(nX) if S >> i & 1],
                    "a": w_ideal(a)})
        hk = h(kS)
        if S & ~hk:
            return VerdictReport("T01", FAILS, {"part": "hk extensive", "S": S})
        if h(k(hk)) != hk:
            return VerdictReport("T01", FAILS, {"part": "hk idempotent", "S": S})
    notes.append("Galois exhaustive over all subsets" if exhaustive
                 else "Galois on 2048 sampled subsets")
    pairs = subsets if nX <= 6 else _subset_samples(nX, 64)
    for S in pairs:
        for T in pairs:
            if k(S | T) != k(S) & k(T):
                return VerdictReport("T01", FAILS, {"part": "k(∪)=∩k", "S": S, "T": T})
            if S & ~T == 0 and k(T) & ~k(S):
                return VerdictReport("T01", FAILS,
                                     {"part": "k order-reversing", "S": S, "T": T})
    return VerdictReport("T01", HOLDS, notes="; ".join(notes))


def _t01_notes(R):
    return (f"sum identity exhaustive over 2^{len(enumerate_ideals(R))} sublists; "
            "Galois exhaustive over all subsets")


class TestT01Vectorised:
    def test_matches_the_scalar_loops_on_the_suite(self, suite_rings):
        # the scalar loops sample wide spectra, the reduced body is exhaustive
        for R, kind, _spec in _instances(suite_rings):
            got, want = run_check("T01", R, kind), _scalar_t01(R, kind)
            assert (got.status, got.witness) == (want.status, want.witness), (R.label, kind)
            assert got.notes == _t01_notes(R)

    def test_forced_failures_give_the_scalar_witness(self, monkeypatch):
        # flip each hull-table bit in turn, on fresh rings so no patched table
        # outlives the test; both routes read the same patched table
        failures = 0
        for expr, kind in (("Z12", "prp"), ("Z2xZ2xZ2", "min"), ("Z8", "spc")):
            R = parse_ring_expression(expr)
            spec = make_spectrum(R, kind)
            true_hulls = spec.hulls
            spec.x_radicals  # cached from the true table before patching
            for i in range(len(true_hulls)):
                for j in range(len(spec)):
                    patched = list(true_hulls)
                    patched[i] ^= 1 << j
                    with monkeypatch.context() as mp:
                        mp.setitem(spec.__dict__, "hulls", tuple(patched))
                        got = run_check("T01", R, kind)
                        want = _scalar_t01(R, kind)
                    assert got == want, (expr, kind, i, j)
                    failures += got.fails
        assert failures > 0

    def test_wrong_meet_entries_fail_the_glb_law(self, monkeypatch):
        # replace one meet entry by each other ideal in turn, on fresh rings
        # with every table cached first; an entry with the true meet's hull is
        # invisible to the hull laws, so only the glb law can catch it
        hidden = 0
        for expr, kind in (("Z8", "spc"), ("Z12", "prp"), ("Z2xZ4", "max")):
            R = parse_ring_expression(expr)
            assert run_check("T01", R, kind).holds
            lat, spec = enumerate_ideals(R), make_spectrum(R, kind)
            true_meet = lat.meet
            for a in range(len(lat)):
                for b in range(len(lat)):
                    for w in range(len(lat)):
                        if w == true_meet[a, b]:
                            continue
                        patched = true_meet.copy()
                        patched[a, b] = w
                        with monkeypatch.context() as mp:
                            mp.setitem(lat.__dict__, "meet", patched)
                            got = run_check("T01", R, kind)
                        assert got.fails, (expr, kind, a, b, w)
                        if spec.hulls[w] == spec.hulls[true_meet[a, b]]:
                            assert got.witness["part"] == "k(∪)=∩k", (expr, kind, a, b, w)
                            hidden += 1
        assert hidden > 0

    def test_wrong_inclusion_entries_fail_the_galois_law(self):
        # one false leq entry, set after the spectrum is built but before its
        # hull table is packed from leq: the hulls agree with the wrong leq,
        # so only the element masks can tell p ∈ h(a) from a ⊆ p
        for a, b, point in (("⟨4⟩", "o", "o"), ("⟨2⟩", "⟨4⟩", "⟨4⟩")):
            R = parse_ring_expression("Z8")
            make_spectrum(R, "prp")
            lat = enumerate_ideals(R)
            index = {x.name: i for i, x in enumerate(lat.ideals)}
            lat.leq[index[a], index[b]] = True
            got = run_check("T01", R, "prp")
            assert got.fails, (a, b)
            assert got.witness["part"] == "Galois connection"
            assert (got.witness["S"], got.witness["a"]["ideal"]) == ([point], a)

    def test_no_note_says_sampled(self, suite_rings):
        caps = Caps()
        wide = [parse_ring_expression(e, caps) for e in ("Z2xZ2xZ2xZ2xZ2", "Z4xZ4xZ4")]
        for R in (*suite_rings, *wide):
            for kind in ALL_KINDS:
                rep = run_check("T01", R, kind, caps)
                assert "sampled" not in rep.notes, (R.label, kind)
                if rep.holds:
                    assert rep.notes == _t01_notes(R)

    def test_raised_caps_on_a_ring_wider_than_a_machine_word(self):
        caps = Caps(max_ring_size=72, max_hom_product=5184)
        R = parse_ring_expression("Z72", caps)
        assert run_check("T01", R, "prp", caps).holds


class TestT07:
    @staticmethod
    def _irs_by_table(expr, s):
        """A fresh ring whose meet table, before the kind rows are built, has
        R for every a∩b ⊆ s with a ⊄ s and b ⊄ s, so s is strongly irreducible
        by the table; only the element masks still show a∩b ⊆ s."""
        R = parse_ring_expression(expr)
        lat = enumerate_ideals(R)
        leq, meet = lat.leq, lat.meet
        n = len(lat)
        pairs = [(a, b) for a in range(n) for b in range(n)
                 if not leq[a, s] and not leq[b, s] and leq[meet[a, b], s]]
        for a, b in pairs:
            meet[a, b] = n - 1
        return R, lat, pairs

    def test_wrong_meet_entries_fail_the_meet_inclusion_clause(self):
        R, lat, pairs = self._irs_by_table("Z12", 0)
        assert len(pairs) == 4 and lat.kind_rows[SpectrumKind.IRS] & 1
        got = run_check("T07", R, "irs")
        assert got.fails and got.witness["part"] == "mip over all ideal pairs"
        assert [got.witness[x]["ideal"] for x in "abs"] == ["⟨3⟩", "⟨4⟩", "o"]

    def test_every_table_made_point_fails_the_first_clause(self):
        gained = 0
        for expr in ("Z8", "Z12", "Z36", "Z2xZ4", "Z2xZ2xZ2", "Z6xZ6"):
            base = enumerate_ideals(parse_ring_expression(expr))
            for s in range(len(base) - 1):
                if base.kind_rows[SpectrumKind.IRS] >> s & 1:
                    continue
                R, lat, _ = self._irs_by_table(expr, s)
                if lat.kind_rows[SpectrumKind.IRS] >> s & 1:
                    gained += 1
                    got = run_check("T07", R, "irs")
                    assert got.fails, (expr, s)
                    assert got.witness["part"] == "mip over all ideal pairs", (expr, s)
        assert gained == 23


def test_rings_are_freed_with_their_caches():
    R = parse_ring_expression("Z6")
    assert run_check("T01", R, "prp").holds
    assert run_check("T18", R, "prp").holds
    ref = weakref.ref(R)
    del R
    gc.collect()
    assert ref() is None
