"""Named checks T01..T24, one per verified statement, plus the suite runner.

Each check evaluates one statement about hull/kernel maps, spectra, or ideal
spaces on a concrete (ring, kind) instance and returns a VerdictReport.
Equivalence-form statements compute both sides independently; implication
forms track vacuity.  Instances whose spectrum is empty report ``vacuous``.

Witness selection is deterministic: ideals are searched largest-first, in
``witness_indices`` order, so identical configurations produce identical
reports.  Point membership is a bit of the spectrum's kind row.

Every check starts from ``_ctx``: the (ring, kind) spectrum and its lattice.
The checks that read the point order as a space (T05, T08-T17, T20 and T23)
wrap the spectrum in a ``generate_topology`` space; the others read its
tables directly.

The contraction checks T18-T22 share one record per (hom, kind),
``HomView.at``: the source point of each target point, their mask and the
target spectrum, whose hull table they compare against.  No target topology
is built: the point order the embedding test reads is ``Spectrum.above``.
T18's pull-back law on a kind is the restriction of one kind-free identity,
the adjunction a ⊆ f⁻¹(b) ⟺ ⟨f(a)⟩ ⊆ b, to the kind's target points, so it
is decided once per hom by ``HomView.adjoint_misses``; only a view whose
restriction fails runs the per-ideal loop that names the witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from time import perf_counter

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import IdealSpacesError
from .ideals import (
    ALL_KINDS,
    SpectrumKind,
    _bit_matrix,
    enumerate_ideals,
    generate_ideal,
    jacobson_radical,
)
from .reports import (
    FAILS,
    HOLDS,
    VACUOUS,
    VerdictReport,
    w_ideal,
    w_ideals,
    w_point_set,
)
from .rings import (
    _bits,
    _span,
    is_von_neumann_regular,
    localize,
    make_quotient,
    multiplicative_closure,
    product_encode,
)
from .spectra import (
    PointSet,
    _meet_inclusion_failure,
    check_mip,
    has_partition_of_unity,
    hull_mask,
    kuratowski_union_axiom,
    make_spectrum,
)
from .topology import (
    closure_of,
    extract_idempotent,
    generate_topology,
    irreducible_closed_sets,
    is_connected,
    is_quasi_compact,
    is_sober,
    is_t0,
    is_t1,
    strongly_disconnects,
    subbase_pair,
)

DEFAULT_SUITE_EXPRS = ("Z2", "Z4", "Z6", "Z8", "Z12", "Z36",
                       "Z2xZ2xZ2", "Z2xZ4", "Z6xZ6")


# ---------------------------------------------------------------------------
# shared helpers


def _ctx(ring, kind, caps):
    spec = make_spectrum(ring, kind, caps)
    return spec.lattice, spec


@dataclass(frozen=True)
class Contraction:
    """The contraction map b -> f⁻¹(b) of one hom on one kind: ``bits[j]`` is
    the source point index of f⁻¹(b) for the j-th point b of ``target``, the
    spectrum of f's target, and ``image`` is the mask of those source points."""

    bits: tuple
    image: int
    target: object


class HomView:
    """One canonical hom f: R -> R' (a quotient or a localization) with the
    tables the contraction checks T18-T22 read.

    - ``contract[j]`` is the source lattice index of f⁻¹(b) for the j-th
      ideal b of the target lattice;
    - ``pushed[i]`` is the target lattice index of ⟨f(a)⟩ for the i-th ideal
      a of the source lattice;
    - ``kernel`` is ker f, an ideal of R;
    - ``adjoint_misses`` is the mask of the target lattice indices b at
      which some source ideal a has (a ⊆ f⁻¹(b)) ≠ (⟨f(a)⟩ ⊆ b), that is,
      where the Galois adjunction a ⊆ f⁻¹(b) ⟺ ⟨f(a)⟩ ⊆ b (Ore 1944) fails.
      It compares the source inclusion matrix at the columns ``contract``
      with the target one at the rows ``pushed``; each lattice is built
      from its own ring, so no target table is derived through ``contract``.

    These depend on f and the two lattices alone, not on a spectrum kind, so
    they are built once per hom.  T18's law (f*)⁻¹(h(a)) = h(⟨f(a)⟩) on a
    kind asks, at each target point b, whether the source point f⁻¹(b)
    contains a exactly when b contains ⟨f(a)⟩: the adjunction restricted to
    the columns b that are points of that kind.  It therefore fails exactly
    when ``adjoint_misses`` meets the target spectrum's kind row.

    ``at(kind, caps)`` adds the kind: the ``Contraction`` of f on it, built
    once per (hom, kind), or None when some f⁻¹(b) is not a point of X(R),
    i.e. when the contraction property fails.
    Every canonical hom is onto: a quotient map, or r -> e·r onto eR = R_S.
    """

    def __init__(self, hom, caps, mult_set=None):
        self.hom = hom
        self.caps = caps
        self.mult_set = mult_set  # S for the localization R -> R_S
        self.kernel = hom.kernel()
        self._at = {}

    @cached_property
    def contract(self):
        f = self.hom
        index = enumerate_ideals(f.source, self.caps).mask_index
        return tuple(index[f.preimage(m)]
                     for m in enumerate_ideals(f.target, self.caps).masks)

    @cached_property
    def pushed(self):
        f = self.hom
        index = enumerate_ideals(f.target, self.caps).mask_index
        return tuple(index[_span(f.target, (f.map[x] for x in _bits(m)))]
                     for m in enumerate_ideals(f.source, self.caps).masks)

    @cached_property
    def adjoint_misses(self):
        f = self.hom
        src = enumerate_ideals(f.source, self.caps).leq
        tgt = enumerate_ideals(f.target, self.caps).leq
        # [a, b]: a ⊆ f⁻¹(b) against ⟨f(a)⟩ ⊆ b
        bad = (src[:, list(self.contract)] != tgt[list(self.pushed)]).any(axis=0)
        return sum(1 << int(b) for b in np.flatnonzero(bad))

    def at(self, kind, caps):
        if kind not in self._at:
            pos = make_spectrum(self.hom.source, kind, caps).point_positions
            target = make_spectrum(self.hom.target, kind, caps)
            bits = tuple(pos[self.contract[j]] for j in target.lattice_indices)
            self._at[kind] = None if None in bits else Contraction(
                bits, reduce(or_, (1 << b for b in bits), 0), target)
        return self._at[kind]


def _hom_views(R, caps):
    """Views of R -> R/a for every proper ideal a, then of R -> R_S for every
    distinct closure S of one nonzero element that avoids 0; built once per
    ring."""
    views = R._derived.get("hom_views")
    if views is None:
        views = [HomView(make_quotient(R, a, caps=caps)[1], caps)
                 for a in enumerate_ideals(R, caps).proper]
        seen = set()
        for x in R.elements:
            if x == R.zero:
                continue
            S = multiplicative_closure(R, (x,))
            if R.zero in S.members or S.members in seen:
                continue
            seen.add(S.members)
            views.append(HomView(localize(R, S, caps=caps)[1], caps, S))
        R._derived["hom_views"] = views
    return views


def _kernel_indices(spec, subsets):
    """Lattice index of k(S) for each row S of a point bit matrix, folded
    through the meet table; R (the last index) for the empty set."""
    meet = spec.lattice.meet
    k = np.full(len(subsets), len(spec.lattice) - 1, dtype=np.intp)
    for j, p in enumerate(spec.lattice_indices):
        rows = subsets[:, j]
        k[rows] = meet[k[rows], p]
    return k


def _fail(check, witness, notes=""):
    return VerdictReport(check, FAILS, witness=witness, notes=notes)


def _hold(check, notes=""):
    return VerdictReport(check, HOLDS, notes=notes)


def _vac(check, notes=""):
    return VerdictReport(check, VACUOUS, notes=notes)


# ---------------------------------------------------------------------------
# T01  hull/kernel identities


def _run_t01(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    L = lat.ideals
    hulls = spec.hulls
    full = spec.full_mask

    if hulls[-1] != 0:
        return _fail("T01", {"part": "h(R)=∅"})
    if hulls[0] != full:
        return _fail("T01", {"part": "h(o)=X"})
    # k(∅) = R is a definition, not a law: spectra.kernel returns R for ∅

    # laws over ideal pairs; the first failure in (a, b) order, each a's
    # radical law after its pairs
    nL, nX = len(L), len(spec)
    H = _bit_matrix(hulls, nX)  # H[i, j]: a_i ⊆ point j
    hsub = ~(H @ ~H.T)          # hsub[i, j]: h(a_i) ⊆ h(a_j)
    idx = np.arange(nL)
    meet = lat.meet
    reversing = lat.leq & ~hsub.T
    between = ~(hsub[idx[:, None], meet] & hsub[idx[None, :], meet]
                & hsub[meet, lat.product])
    radical_bad = ~hsub[lat.radical, idx]
    pair_bad = reversing | between
    row_bad = pair_bad.any(axis=1) | radical_bad
    if row_bad.any():
        i = int(row_bad.argmax())
        if not pair_bad[i].any():
            return _fail("T01", {"part": "h(a) ⊇ h(√a)", "a": w_ideal(L[i])})
        j = int(pair_bad[i].argmax())
        part = "h order-reversing" if reversing[i, j] else "h(a)∪h(b) ⊆ h(a∩b) ⊆ h(ab)"
        return _fail("T01", {"part": part, "a": w_ideal(L[i]), "b": w_ideal(L[j])})

    # ∩h(aᵢ) = h(Σaᵢ) for every sublist follows by induction from h(o) = X
    # (above) and the binary law h(a) ∩ h(b) = h(a+b) over all lattice pairs;
    # the first failing pair in the order of its sublist mask.
    sum_bad = ((H[:, None, :] & H[None, :, :]) != H[lat.sum]).any(axis=2)
    sum_bad = np.tril(sum_bad | sum_bad.T)
    if sum_bad.any():
        i, j = divmod(int(sum_bad.argmax()), nL)
        return _fail("T01", {"part": "∩h(aᵢ)=h(Σaᵢ)",
                             "family": [w_ideal(L[m]) for m in sorted({i, j})]})

    # (h, k) is an antitone Galois connection (Ore 1944): S ⊆ h(a) ⟺ a ⊆ k(S).
    # Both sides say a ⊆ p for each p ∈ S (k(S) as the glb, checked below), so
    # the law holds iff it holds on singletons, p ∈ h(a) ⟺ a ⊆ p.  A failing S
    # holds a failing singleton of no larger mask, so the point-major scan
    # finds the first failing S.  hk extensive, S ⊆ hk(S), is the law at k(S).
    # a ⊆ p from the element masks, not from the leq that hulls is packed from
    galois = H.T != np.array([[m & ~lat.masks[p] == 0 for m in lat.masks]
                              for p in spec.lattice_indices])  # [point, ideal]
    if galois.any():
        j, i = divmod(int(galois.argmax()), nL)
        return _fail("T01", {"part": "Galois connection", "S": [spec.points[j].name],
                             "a": w_ideal(L[i])})

    # hk(S) depends on S only through k(S), so hk is idempotent iff
    # h(k(h(a))) = h(a) for every a = k(S) in the kernel image
    xr = spec.x_radicals
    for i in spec.kernel_image:
        if hulls[xr[i]] != hulls[i]:
            return _fail("T01", {"part": "hk idempotent", "k(S)": w_ideal(L[i])})

    # k(S) folds meet from R over the points of S, so once meet is the glb
    # of leq (c ⊆ a∩b ⟺ c ⊆ a and c ⊆ b), each k law is a glb identity for
    # every S and T: a ⊆ k(S) ⟺ a ⊆ every p ∈ S, k(S ∪ T) = k(S) ∩ k(T),
    # and S ⊆ T ⟹ k(T) ⊆ k(S).  The first failing (a, b) in index order.
    leq = lat.leq
    glb_bad = (leq[:, meet] != (leq[:, :, None] & leq[:, None, :])).any(axis=0)
    if glb_bad.any():
        a, b = divmod(int(glb_bad.argmax()), nL)
        return _fail("T01", {"part": "k(∪)=∩k", "a": w_ideal(L[a]), "b": w_ideal(L[b]),
                             "a∩b": w_ideal(L[meet[a, b]])})
    return _hold("T01", notes=f"sum identity exhaustive over 2^{nL} sublists; "
                              "Galois exhaustive over all subsets")


# ---------------------------------------------------------------------------
# T02  radical-hull equivalence


def _run_t02(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    hulls, rad = spec.hulls, lat.radical
    side_all = all(hulls[i] == hulls[rad[i]] for i in range(len(lat)))
    side_pts = all(hulls[i] == hulls[rad[i]] for i in spec.lattice_indices)
    side_rad = all(rad[i] == i for i in spec.lattice_indices)
    if side_all == side_pts == side_rad:
        return _hold("T02", notes=f"all three sides {'true' if side_all else 'false'}")
    return _fail("T02", {"h(a)=h(√a) on Idl": side_all,
                         "h(a)=h(√a) on X": side_pts,
                         "points radical": side_rad})


# ---------------------------------------------------------------------------
# T03  meet-inclusion property iff hk is a Kuratowski closure


def _run_t03(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    mip = check_mip(spec)
    kur_ok, kur_wit = kuratowski_union_axiom(spec)
    notes = [f"mip {'holds' if mip.holds else 'fails'}",
             f"union axiom {'holds' if kur_ok else 'fails'}"]
    if mip.holds != kur_ok:
        return _fail("T03", {"mip": mip.status,
                             "union_axiom": kur_ok,
                             "mip_witness": mip.witness,
                             "axiom_witness": None if kur_wit is None else w_ideals(kur_wit)},
                     notes="equivalence broken")
    nX = len(spec)
    if nX <= 10:
        idx = np.arange(1 << nX, dtype=np.int64)
        subsets = _bit_matrix(idx.tolist(), nX)
        hk = np.array(spec.hulls, dtype=np.int64)[_kernel_indices(spec, subsets)]
        ors = idx[:, None] | idx[None, :]
        exhaustive_ok = bool((hk[ors] == (hk[:, None] | hk[None, :])).all())
        notes.append(f"exhaustive subset-pair check over 2^{nX} sets "
                     f"{'agrees' if exhaustive_ok == kur_ok else 'DISAGREES'}")
        if exhaustive_ok != kur_ok:
            return _fail("T03", {"reduced": kur_ok, "exhaustive": exhaustive_ok},
                         notes="; ".join(notes))
    if not mip.holds:
        return _hold("T03", notes="; ".join(notes) + f"; witness {mip.witness}")
    return _hold("T03", notes="; ".join(notes))


# ---------------------------------------------------------------------------
# T04  X = im(k) iff X is intersection-closed


def _run_t04(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    pts = set(spec.lattice_indices)
    side_eq = set(spec.kernel_image) - {len(lat) - 1} == pts
    meet = lat.meet[np.ix_(spec.lattice_indices, spec.lattice_indices)]
    side_closed = pts.issuperset(meet.ravel().tolist())
    note = ("nonempty-subset reading: k(∅)=R is excluded from the comparison "
            "since R is never a spectrum point")
    if side_eq == side_closed:
        return _hold("T04", notes=f"both sides {'true' if side_eq else 'false'}; {note}")
    return _fail("T04", {"im(k)=X": side_eq, "intersection-closed": side_closed},
                 notes=note)


# ---------------------------------------------------------------------------
# T05  closed-base characterization


def _run_t05(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    kur_ok, _ = kuratowski_union_axiom(spec)
    hk_family = {spec.hulls[i] for i in spec.kernel_image}
    # {hk(S)} is a closed base iff every closed set is the meet of the hk sets
    # holding it.  Every up-set is the meet of the sets X∖↓p for the points p
    # outside it (Birkhoff), and those are closed, so it suffices to test them.
    witness = None
    for j in range(len(spec)):
        c = T.full_mask & ~sum(1 << i for i, row in enumerate(T.above) if row >> j & 1)
        if reduce(and_, (d for d in hk_family if c & ~d == 0), T.full_mask) != c:
            witness = {"closed_set": w_point_set(PointSet(spec, c))}
            break
    base_ok = witness is None
    if base_ok == kur_ok:
        return _hold("T05", notes=f"both sides {'true' if kur_ok else 'false'}")
    return _fail("T05", witness or {"closed_base": base_ok, "union_axiom": kur_ok},
                 notes=f"closed base {base_ok} vs union axiom {kur_ok}")


# ---------------------------------------------------------------------------
# T06  generalized-radical properties


def _run_t06(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    L, masks, leq = lat.ideals, lat.masks, lat.leq
    hulls, xr, rad = spec.hulls, spec.x_radicals, lat.radical

    for i in lat.witness_indices:
        if masks[i] & ~masks[xr[i]]:
            return _fail("T06", {"part": "a ⊆ √[X]a", "a": w_ideal(L[i])})
        if masks[xr[i]] & ~masks[rad[i]]:
            return _fail(
                "T06",
                {"part": "√[X]a ⊆ √a", "a": w_ideal(L[i]),
                 "x_radical": w_ideal(L[xr[i]]), "radical": w_ideal(L[rad[i]])},
                notes="h(a) is empty for a proper ideal, so √[X]a = R overshoots √a; "
                      "holds exactly when the spectrum has the partition-of-unity property")
    for i in spec.lattice_indices:
        if xr[i] != i:
            return _fail("T06", {"part": "a ∈ X ⟹ √[X]a = a", "a": w_ideal(L[i])})
    for i in range(len(L)):
        if hulls[xr[i]] != hulls[i]:
            return _fail("T06", {"part": "h(√[X]a) = h(a)", "a": w_ideal(L[i])})
    # h(a) ⊆ h(b) iff no point holds a but not b, iff the boolean product
    # H·¬Hᵀ is false at (a, b); the law compares that matrix with an
    # inclusion matrix, and the first failing (a, b) is the first mismatch
    # in row-major order
    H = _bit_matrix(hulls, len(spec))  # H[i, j]: a_i ⊆ point j
    hsub = ~(H @ ~H.T)                 # hsub[i, j]: h(a_i) ⊆ h(a_j)
    bad = np.flatnonzero(hsub != leq[np.ix_(xr, xr)].T)
    if bad.size:
        i, j = divmod(int(bad[0]), len(L))
        return _fail("T06", {"part": "h(a)⊆h(b) ⟺ √[X]b⊆√[X]a",
                             "a": w_ideal(L[i]), "b": w_ideal(L[j])})
    # on a regular ring √a = a, so a ⊆ √[X]a ⊆ √a forces √[X]a = a and the
    # order law just passed is exactly the criterion h(a)⊆h(b) ⟺ b⊆a
    note = ("regular-ring criterion checked" if is_von_neumann_regular(R)
            else "ring not von Neumann regular; regular-ring part skipped")
    if set(hulls) != {hulls[i] for i in spec.kernel_image}:
        return _fail("T06", {"part": "C_h = C_hk"})
    return _hold("T06", notes=note)


# ---------------------------------------------------------------------------
# T07  the strongly irreducible spectrum


def _run_t07(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    triple = _meet_inclusion_failure(spec, lat.witness_indices)
    if triple:
        a, b, s = (w_ideal(lat.ideals[i]) for i in triple)
        return _fail("T07", {"part": "mip over all ideal pairs", "a": a, "b": b, "s": s})
    rows = lat.kind_rows  # no row but FGN's holds R
    if bad := rows[SpectrumKind.SPC] ^ (rows[SpectrumKind.IRS] & rows[SpectrumKind.RAD]):
        return _fail("T07", {"part": "prime ⟺ strongly irreducible ∧ radical",
                             "a": w_ideal(lat.ideals[next(_bits(bad))])})
    for sub in (SpectrumKind.SPC, SpectrumKind.SPN, SpectrumKind.MAX):
        if missing := rows[sub] & ~spec.row:
            return _fail("T07", {"part": f"{sub.title} ⊆ Irs",
                                 "p": w_ideal(lat.ideals[next(_bits(missing))])})
    return _hold("T07", notes="mip holds over all ideal pairs; sub-spectra contained")


# ---------------------------------------------------------------------------
# T08  T1 iff every point is maximal


def _run_t08(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    t1 = is_t1(T)
    max_row = lat.kind_rows[SpectrumKind.MAX]
    non_max = [i for i in spec.witness_indices if not max_row >> i & 1]
    side_max = not non_max
    if t1.holds == side_max:
        return _hold("T08", notes=f"T1 {t1.status}; X ⊆ Max {side_max}")
    return _fail(
        "T08",
        {"t1": t1.status, "X ⊆ Max": side_max,
         "non_maximal_point": w_ideal(lat.ideals[non_max[0]]) if non_max else None,
         "t1_witness": t1.witness},
        notes="the necessity direction presumes maximal ideals are spectrum "
              "points; antichain spectra (e.g. minimal ideals) are T1 without that")


# ---------------------------------------------------------------------------
# T09  every ideal space is T0


def _run_t09(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    t0 = is_t0(T)
    # independent route: some closed set separates each pair.  The closure of
    # i is the smallest closed set holding i, so one exists iff the closure
    # of i excludes j or the closure of j excludes i.
    n = len(spec)
    for i in range(n):
        for j in range(i + 1, n):
            if T.above[i] >> j & 1 and T.above[j] >> i & 1:
                return _fail("T09", {"p": w_ideal(spec.points[i]),
                                     "q": w_ideal(spec.points[j])},
                             notes="no closed set separates the pair")
    if not t0.holds:
        return _fail("T09", t0.witness, notes="closure route disagrees")
    return _hold("T09")


# ---------------------------------------------------------------------------
# T10  sobriety criterion


def _run_t10(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    sober = is_sober(T)
    irr = irreducible_closed_sets(T)
    irr_masks = {ps.mask for ps, _g in irr}
    hm, pos = spec.hulls, spec.point_positions

    weak = True
    weak_witness = None
    for ps, _g in irr:
        if not any(hm[i] == ps.mask and ps.mask >> j & 1
                   for j, i in enumerate(spec.lattice_indices)):
            weak = False
            weak_witness = {"set": w_point_set(ps)}
            break

    strong = True
    xor_pairs = []
    for i in lat.witness_indices:
        if hm[i] and hm[i] in irr_masks:
            a_in = pos[i] is not None and bool(hm[i] >> pos[i] & 1)
            if a_in:
                continue
            strong = False
            for b, j in enumerate(pos):
                if j is not None and hm[b] == hm[i] and hm[b] >> j & 1:
                    xor_pairs.append((lat.ideals[i], lat.ideals[b]))
                    break
    notes = [f"sober {sober.status}; criterion (per closed set) {weak}; "
             f"criterion (all ideals) {strong}"]
    if xor_pairs:
        frag = ", ".join(f"h({a.name})=h({b.name}) but only {b.name} lies inside"
                         for a, b in xor_pairs[:3])
        notes.append(f"non-injective hulls: {frag}")
    if sober.holds != weak:
        return _fail("T10", weak_witness or {"sober": sober.status, "criterion": weak},
                     notes="; ".join(notes))
    return _hold("T10", notes="; ".join(notes))


# ---------------------------------------------------------------------------
# T11  hulls of points are their closures and are irreducible


def _run_t11(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    irr_masks = {ps.mask for ps, _g in irreducible_closed_sets(T)}
    for k in spec.witness_indices:
        p, hma, i = lat.ideals[k], spec.hulls[k], spec.point_positions[k]
        # the meet of the closed sets containing p: each is a meet of finite
        # unions of subbasic sets, and such a union holding p has a member
        # holding p, so the meet of the subbasic hulls holding p is the same
        cl = reduce(and_, (c for c in T.subbase_masks if c >> i & 1), spec.full_mask)
        if cl != hma:
            return _fail("T11", {"point": w_ideal(p),
                                 "closure": w_point_set(PointSet(spec, cl)),
                                 "hull": w_point_set(PointSet(spec, hma))})
        if hma not in irr_masks:
            return _fail("T11", {"point": w_ideal(p), "part": "hull not irreducible"})
    return _hold("T11", notes=f"{len(spec)} point hulls checked")


# ---------------------------------------------------------------------------
# T12  nonempty subbasic closed sets of the proper spectrum are irreducible


def _run_t12(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    irr_masks = {ps.mask for ps, _g in irreducible_closed_sets(T)}
    for i in lat.witness_indices:
        m = spec.hulls[i]
        if m and m not in irr_masks:
            return _fail("T12", {"a": w_ideal(lat.ideals[i]),
                                 "hull": w_point_set(PointSet(spec, m))})
    return _hold("T12")


# ---------------------------------------------------------------------------
# T13  base intersections and strong disconnection vs disconnectedness


def _run_t13(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    # Every base set is the union of the closures h(p) of its points, and ∩
    # distributes over ∪, so ∪h(aᵢ) ∩ ∪h(bⱼ) = ∪h(aᵢ+bⱼ) holds for all base
    # pairs iff h(p) ∩ h(q) = h(p+q) holds for all point pairs; the base, the
    # unions of hulls, is then closed under ∩.
    sums, hulls, pts = lat.sum.tolist(), spec.hulls, spec.lattice_indices
    for j, p in enumerate(pts):
        for k, q in enumerate(pts):
            if hulls[p] & hulls[q] != hulls[sums[p][q]]:
                return _fail("T13", {"part": "∪h(aᵢ) ∩ ∪h(bⱼ) = ∪h(aᵢ+bⱼ)",
                                     "A": T.above[j], "B": T.above[k]})
    # connectedness by its own route, not through components(T): the points
    # reached from point 0 along the comparability relation (i ⊆ j or j ⊆ i)
    reached, prev = T.full_mask & 1, None
    while reached != prev:
        prev = reached
        for j, row in enumerate(T.above):
            if row & reached:  # j, or a point above j, is reached
                reached |= row | 1 << j
    disconnected = reached != T.full_mask
    sd = strongly_disconnects(T, "base")
    if disconnected != sd.holds:
        return _fail("T13", {"disconnected": disconnected, "base strongly disconnects":
                             sd.holds, "sd": sd.witness})
    return _hold("T13", notes=f"disconnected={disconnected}; space quasi-compact (finite)")


# ---------------------------------------------------------------------------
# T14  strong disconnection yields a nontrivial idempotent


def _hypotheses_pr1(R, spec, T, caps):
    if len(jacobson_radical(R, caps)) != 1:
        return None, "Jacobson radical is nonzero"
    if missing := spec.lattice.kind_rows[SpectrumKind.MAX] & ~spec.row:
        name = spec.lattice.ideals[next(_bits(missing))].name
        return None, f"maximal ideal {name} not a spectrum point"
    pair = subbase_pair(T)
    if pair is None:
        return None, "subbase does not strongly disconnect the space"
    return tuple(spec.lattice.ideals[i] for i in pair), ""


def _run_t14(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    pair, why = _hypotheses_pr1(R, spec, T, caps)
    if pair is None:
        return _vac("T14", notes=why)
    a, b = pair
    try:
        e = extract_idempotent(T, (a, b))
    except IdealSpacesError as exc:
        return _fail("T14", {"a": w_ideal(a), "b": w_ideal(b), "error": str(exc)})
    return _hold("T14", notes=f"idempotent {R.name(e)} from pair ({a.name}, {b.name})")


# ---------------------------------------------------------------------------
# T15  the disconnecting pair is the idempotent pair (e), (1-e)


def _run_t15(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    pair, why = _hypotheses_pr1(R, spec, T, caps)
    if pair is None:
        return _vac("T15", notes=why)
    a, b = pair
    try:
        e = extract_idempotent(T, (a, b))
    except IdealSpacesError as exc:
        return _fail("T15", {"error": str(exc)})
    f = R.sub(R.one, e)
    gen_e = generate_ideal(R, (e,))
    gen_f = generate_ideal(R, (f,))
    if gen_e != a or gen_f != b:
        return _fail("T15", {"a": w_ideal(a), "b": w_ideal(b),
                             "⟨e⟩": w_ideal(gen_e), "⟨1-e⟩": w_ideal(gen_f)})
    if hull_mask(spec, gen_e) != hull_mask(spec, a) or \
            hull_mask(spec, gen_f) != hull_mask(spec, b):
        return _fail("T15", {"part": "hulls of ⟨e⟩, ⟨1-e⟩ differ from the pair"})
    return _hold("T15", notes=f"a=⟨{R.name(e)}⟩ and b=⟨{R.name(f)}⟩ as required")


# ---------------------------------------------------------------------------
# T16  a spectrum containing the zero ideal is connected


def _run_t16(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    conn = is_connected(T)
    if not spec.row & 1:  # o, lattice index 0, is not a point
        note = "o not a point; hypothesis unsatisfied"
        if conn.holds:
            note += " (converse fails here: connected without containing o)"
        return _vac("T16", notes=note)
    if conn.holds:
        return _hold("T16", notes="o ∈ X and the space is connected")
    return _fail("T16", conn.witness, notes="o ∈ X yet the space is disconnected")


# ---------------------------------------------------------------------------
# T17  idempotents without strong disconnection (product-ring example)


def _run_t17(R, kind, caps):
    if R.components is None or len(R.components) < 2:
        return _vac("T17", notes="not a product ring; example does not instantiate")
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    if len(jacobson_radical(R, caps)) != 1:
        return _vac("T17", notes="Jacobson radical nonzero")
    nontrivial = [x for x in R.idempotents if x not in (R.zero, R.one)]
    if not nontrivial:
        return _vac("T17", notes="no nontrivial idempotents")
    e = product_encode(R, tuple([R.components[0].one] +
                                [c.zero for c in R.components[1:]]))
    f = R.sub(R.one, e)
    a, b = generate_ideal(R, (e,)), generate_ideal(R, (f,))
    ha, hb = hull_mask(spec, a), hull_mask(spec, b)
    if not ha or not hb or ha & hb:
        return _fail("T17", {"a": w_ideal(a), "b": w_ideal(b)},
                     notes="coordinate pair is not a disjoint nonempty pair")
    pos = spec.point_positions
    uncovered = [lat.ideals[k] for k in spec.witness_indices if not (ha | hb) >> pos[k] & 1]
    if not uncovered:
        return _fail("T17", {"a": w_ideal(a), "b": w_ideal(b)},
                     notes="coordinate pair unexpectedly covers the space")
    sd = strongly_disconnects(T, "subbase")
    if sd.holds:
        return _fail("T17", sd.witness, notes="subbase strongly disconnects after all")
    return _hold("T17", notes=f"idempotents exist but h({a.name}) ∪ h({b.name}) misses "
                              f"{uncovered[0].name}; no strong disconnection")


# ---------------------------------------------------------------------------
# contraction-map checks (T18-T22)


def _pull_back(mask, bits):
    """Mask of the positions j whose point bits[j] lies in ``mask``."""
    out = 0
    for j, b in enumerate(bits):
        if mask >> b & 1:
            out |= 1 << j
    return out


def _embedding_failure(big, bits, small):
    """Why point i of ``small`` -> bits[i] of ``big`` is not a homeomorphism
    onto its image with the subspace topology, or "" when it is one; reads the
    ``above`` rows of two spectra (or of their topologies).

    Both topologies are the up-sets of their inclusion orders, so this asks
    for an injective map with i ⊆ j ⟺ bits[i] ⊆ bits[j]: the pull-back of
    the closure of each bits[i] must be the closure of i.
    """
    if len(set(bits)) != len(bits):
        return "map not injective"
    pairs = [(_pull_back(big.above[b], bits), row) for b, row in zip(bits, small.above)]
    if any(pulled & ~row for pulled, row in pairs):
        return "image of a closed set is not closed in the subspace"
    if any(row & ~pulled for pulled, row in pairs):
        return "preimage of a closed set is not closed"
    return ""


def _run_t18(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    gated = [(v, c) for v in _hom_views(R, caps) if (c := v.at(kind, caps))]
    for v, c in gated:
        # h(a) must pull back to the target hull h(⟨f(a)⟩), an up-set, so the
        # map is continuous: the closed sets are the unions of the h(a).  The
        # law is the per-hom adjunction restricted to this kind's target
        # points, so only a view whose restriction fails runs the loop that
        # names the first failing ideal.
        if not v.adjoint_misses & c.target.row:
            continue
        for i, a in enumerate(lat.ideals):
            if _pull_back(spec.hulls[i], c.bits) != c.target.hulls[v.pushed[i]]:
                return _fail("T18", {"hom": v.hom.label, "a": w_ideal(a),
                                     "part": "(f*)⁻¹(h(a)) = h(⟨f(a)⟩)"})
    if not gated:
        return _vac("T18", notes="no hom with the contraction property")
    return _hold("T18", notes=f"{len(gated)} canonical homs checked")


def _run_t19(R, kind, caps, quotients_only=False, check_id="T19"):
    lat, spec = _ctx(R, kind, caps)
    gated = [(v, c) for v in _hom_views(R, caps)
             if not (quotients_only and v.mult_set is not None) and (c := v.at(kind, caps))]
    for v, c in gated:
        # every contraction f⁻¹(b) contains f⁻¹(0) = ker f, so the image lies
        # in h(ker f); the equality asks that it be all of it
        ker = v.kernel
        M = spec.hulls[lat.index(ker)]
        if c.image != M:
            return _fail(
                check_id,
                {"hom": v.hom.label, "kernel": w_ideal(ker),
                 "h(ker)": w_point_set(PointSet(spec, M)),
                 "uncovered": w_ideals(PointSet(spec, M & ~c.image).ideals)},
                notes="the contraction map is not onto h(ker f); the spectrum of "
                      "the quotient does not reflect these points")
        if why := _embedding_failure(spec, c.bits, c.target):
            return _fail(check_id, {"hom": v.hom.label, "why": why})
    if not gated:
        return _vac(check_id, notes="no surjective hom with the contraction property")
    return _hold(check_id, notes=f"{len(gated)} surjections checked")


def _run_t20(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    k_full = reduce(and_, (lat.masks[i] for i in spec.lattice_indices))  # ∩X
    gated = [(v, c) for v in _hom_views(R, caps) if (c := v.at(kind, caps))]
    for v, c in gated:
        dense = closure_of(T, c.image).mask == spec.full_mask
        ker_contained = v.kernel.mask & ~k_full == 0
        if dense != ker_contained:
            return _fail("T20", {"hom": v.hom.label, "dense": dense,
                                 "ker ⊆ ∩X": ker_contained,
                                 "kernel": w_ideal(v.kernel)})
    if not gated:
        return _vac("T20", notes="no hom with the contraction property")
    return _hold("T20", notes=f"{len(gated)} homs checked")


def _run_t21(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    gated = [(v, c) for v in _hom_views(R, caps)
             if v.mult_set is not None and (c := v.at(kind, caps))]
    for v, c in gated:
        S = v.mult_set
        s_mask = sum(1 << x for x in S.members)
        # each f(s) is a unit of R_S and points are proper, so contractions
        # avoid S; the equality asks that every such point be hit
        avoiding = sum(1 << j for j, i in enumerate(spec.lattice_indices)
                       if not lat.masks[i] & s_mask)
        if c.image != avoiding:
            return _fail(
                "T21",
                {"hom": v.hom.label, "S": sorted(R.name(x) for x in S.members),
                 "uncovered": w_ideals(PointSet(spec, avoiding & ~c.image).ideals)},
                notes="X(R_S) does not reflect every point of X(R) avoiding S "
                      "(only saturated ideals contract back)")
        if why := _embedding_failure(spec, c.bits, c.target):
            return _fail("T21", {"hom": v.hom.label, "why": why})
    if not gated:
        return _vac("T21", notes="no localization with the contraction property")
    return _hold("T21", notes=f"{len(gated)} localizations checked")


def _run_t22(R, kind, caps):
    return _run_t19(R, kind, caps, quotients_only=True, check_id="T22")


# ---------------------------------------------------------------------------
# T23  partition of unity iff all maximal ideals; then quasi-compact


def _run_t23(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    T = generate_topology(spec, caps)
    pou = has_partition_of_unity(spec)
    missing = lat.kind_rows[SpectrumKind.MAX] & ~spec.row
    contains_max = not missing
    if pou != contains_max:
        return _fail("T23", {"partition_of_unity": pou,
                             "contains_all_maximal": contains_max,
                             "missing": w_ideals(a for i, a in enumerate(lat.ideals)
                                                 if missing >> i & 1)})
    qc = is_quasi_compact(T)
    note = f"pou={pou}; {qc.notes}"
    if pou and not qc.holds:  # pragma: no cover - finite spaces are compact
        return _fail("T23", {"part": "pou ⟹ quasi-compact"})
    return _hold("T23", notes=note)


# ---------------------------------------------------------------------------
# T24  designed meet-inclusion failure reproductions


_T24_KINDS = frozenset({SpectrumKind.MIN, SpectrumKind.PRP, SpectrumKind.PRN,
                        SpectrumKind.FGN, SpectrumKind.RAD, SpectrumKind.IRR,
                        SpectrumKind.PRM})


def _run_t24(R, kind, caps):
    lat, spec = _ctx(R, kind, caps)
    mip = check_mip(spec)
    notes = []
    # The notes name the paper's two examples by ring label, the one place a
    # record reads a label: an isomorphic ring built otherwise gets no note.
    # Keying them on is_isomorphic would cost an isomorphism search per call.
    if R.label == "Z2xZ2xZ2" and kind is SpectrumKind.MIN:
        notes.append("exact reproduction on the three minimal ideals of the "
                     "triple product of the two-element field")
    if R.label == "Z36" and kind in (SpectrumKind.PRP, SpectrumKind.PRN,
                                     SpectrumKind.FGN, SpectrumKind.RAD):
        notes.append("finite analog: Z36 stands in for the integers "
                     "(2Z, 3Z, 6Z become ⟨2⟩, ⟨3⟩, ⟨6⟩)")
    if kind in (SpectrumKind.IRR, SpectrumKind.PRM) and mip.holds:
        notes.append("irreducible/primary coincide with strongly irreducible "
                     "on this ring family, so no failure witness exists here")
    if mip.fails:
        return VerdictReport("T24", FAILS, witness=mip.witness,
                             notes="; ".join(notes) or mip.notes)
    return _hold("T24", notes="; ".join(notes) or "meet-inclusion holds here")


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    id: str
    title: str
    statement: str
    form: str                      # "theorem" or "example"
    kinds: frozenset | None = None  # None = every kind
    runner: object = None

    def applicable(self, kind):
        return self.kinds is None or SpectrumKind(kind) in self.kinds


_CHECKS = [
    CheckSpec("T01", "hull/kernel identities",
              "h and k form an antitone Galois connection with hk an algebraic "
              "closure operation; both maps reverse order; h(R)=∅, h(o)=X, k(∅)=R; "
              "h(a)∪h(b) ⊆ h(a∩b) ⊆ h(ab); ∩h(aᵢ)=h(Σaᵢ); k(∪Sλ)=∩k(Sλ); h(a)⊇h(√a)",
              "theorem", None, _run_t01),
    CheckSpec("T02", "radical-hull equivalence",
              "h(a)=h(√a) for all ideals ⟺ h(a)=h(√a) for all points ⟺ every "
              "point is a radical ideal",
              "theorem", None, _run_t02),
    CheckSpec("T03", "closure criterion (meet inclusion)",
              "hk is a Kuratowski closure operation on X(R) iff a∩b ⊆ s forces "
              "a ⊆ s or b ⊆ s for all a, b in im(k) and points s",
              "theorem", None, _run_t03),
    CheckSpec("T04", "kernel image equals the spectrum",
              "X(R) = im(k) iff X(R) is closed under intersections (nonempty "
              "subsets; k(∅)=R is never a point)",
              "theorem", None, _run_t04),
    CheckSpec("T05", "closed-base characterization",
              "hk is a Kuratowski closure operation iff {hk(S)} is a closed base "
              "of the generated topology",
              "theorem", None, _run_t05),
    CheckSpec("T06", "generalized-radical properties",
              "a ⊆ √[X]a ⊆ √a; √[X]a=a on points; h(√[X]a)=h(a); h(a)⊆h(b) ⟺ "
              "√[X]b⊆√[X]a; on regular rings h(a)⊆h(b) ⟺ b⊆a; the hull family "
              "equals the hk family",
              "theorem", None, _run_t06),
    CheckSpec("T07", "strongly irreducible spectrum",
              "the strongly irreducible spectrum satisfies meet inclusion over "
              "all ideal pairs; prime = strongly irreducible + radical; the "
              "prime, minimal-prime, and maximal spectra are sub-spectra",
              "theorem", frozenset({SpectrumKind.IRS}), _run_t07),
    CheckSpec("T08", "T1 iff maximal points",
              "an ideal space is T1 iff every point is a maximal ideal",
              "theorem", None, _run_t08),
    CheckSpec("T09", "T0 separation",
              "ideal spaces always satisfy the T0 axiom (specialization by "
              "inclusion is antisymmetric)",
              "theorem", None, _run_t09),
    CheckSpec("T10", "sobriety criterion",
              "an ideal space is sober iff every nonempty irreducible closed set "
              "is a hull containing a generating point (recording hull-collision "
              "ideals where the all-ideals reading diverges)",
              "theorem", None, _run_t10),
    CheckSpec("T11", "point hulls are irreducible",
              "for every point a, h(a) is the closure of {a} and is irreducible",
              "theorem", None, _run_t11),
    CheckSpec("T12", "subbasic sets of the proper spectrum",
              "nonempty subbasic closed sets of the proper-ideal spectrum are "
              "irreducible (their defining ideal is itself a point)",
              "theorem", frozenset({SpectrumKind.PRP}), _run_t12),
    CheckSpec("T13", "disconnection via the closed base",
              "the closed base is closed under binary intersections (via "
              "∪h(aᵢ) ∩ ∪h(bⱼ) = ∪h(aᵢ+bⱼ)); a quasi-compact ideal space is "
              "disconnected iff the base strongly disconnects it",
              "theorem", None, _run_t13),
    CheckSpec("T14", "idempotents from strong disconnection",
              "zero Jacobson radical + all maximal ideals present + subbase "
              "strongly disconnects ⟹ the ring has a nontrivial idempotent",
              "theorem", None, _run_t14),
    CheckSpec("T15", "the disconnecting pair is an idempotent pair",
              "under the same hypotheses the disconnecting ideals are ⟨e⟩ and "
              "⟨1-e⟩ for the extracted idempotent e",
              "theorem", None, _run_t15),
    CheckSpec("T16", "zero ideal forces connectedness",
              "if the zero ideal is a point then the ideal space is connected "
              "(converse noted where it fails)",
              "theorem", None, _run_t16),
    CheckSpec("T17", "idempotents without strong disconnection",
              "on a product ring the proper spectrum has nontrivial idempotents "
              "yet the coordinate hull pair fails to cover, so the subbase does "
              "not strongly disconnect",
              "example", frozenset({SpectrumKind.PRP}), _run_t17),
    CheckSpec("T18", "contraction map continuity",
              "when preimages of points are points, b ↦ f⁻¹(b) is continuous and "
              "(f*)⁻¹(h(a)) = h(⟨f(a)⟩)",
              "theorem", None, _run_t18),
    CheckSpec("T19", "surjections give closed subspaces",
              "for surjective f, the target ideal space is homeomorphic to the "
              "closed subset h(ker f) of the source space",
              "theorem", None, _run_t19),
    CheckSpec("T20", "density criterion",
              "the image of the contraction map is dense iff ker f is contained "
              "in the intersection of all points",
              "theorem", None, _run_t20),
    CheckSpec("T21", "localization homeomorphism",
              "the ideal space of the localization at S is homeomorphic to the "
              "points of X(R) disjoint from S",
              "theorem", None, _run_t21),
    CheckSpec("T22", "quotient spectra are hulls",
              "X(R/a) is homeomorphic to the closed subspace h(a) of X(R)",
              "theorem", None, _run_t22),
    CheckSpec("T23", "partition of unity and quasi-compactness",
              "a spectrum has the partition-of-unity property iff it contains "
              "every maximal ideal; with it, the space is quasi-compact",
              "theorem", None, _run_t23),
    CheckSpec("T24", "meet-inclusion failure reproductions",
              "designed counterexamples: minimal ideals of the triple product of "
              "the two-element field, and ⟨2⟩, ⟨3⟩, ⟨6⟩ for the proper, "
              "principal, finitely generated, and radical spectra",
              "example", _T24_KINDS, _run_t24),
]

REGISTRY = {c.id: c for c in _CHECKS}
ALL_CHECK_IDS = tuple(c.id for c in _CHECKS)


def run_check(check_id, ring, kind, caps=DEFAULT_CAPS):
    """Run one registry check on a (ring, kind) instance."""
    if check_id not in REGISTRY:
        raise IdealSpacesError(f"unknown check {check_id!r}")
    spec = REGISTRY[check_id]
    kind = SpectrumKind(kind)
    if not spec.applicable(kind):
        return _vac(check_id, notes=f"not applicable to kind {kind.value}")
    points = make_spectrum(ring, kind, caps).points
    if not points:
        return _vac(check_id, notes="empty spectrum")
    return spec.runner(ring, kind, caps)


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class SuiteConfig:
    ring_exprs: tuple = DEFAULT_SUITE_EXPRS
    kinds: tuple = tuple(k.value for k in ALL_KINDS)
    checks: tuple = ALL_CHECK_IDS
    caps: object = DEFAULT_CAPS
    timings: bool = False


@dataclass(frozen=True)
class SuiteRecord:
    id: str
    anchor: str
    ring: str
    kind: str
    status: str
    witness: dict | None
    notes: str
    runtime_ms: float | None = None

    def to_json(self):
        return json.dumps(
            {"id": self.id, "anchor": self.anchor, "ring": self.ring,
             "kind": self.kind, "status": self.status, "witness": self.witness,
             "notes": self.notes, "runtime_ms": self.runtime_ms},
            sort_keys=True, ensure_ascii=True)

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(id=d["id"], anchor=d["anchor"], ring=d["ring"], kind=d["kind"],
                   status=d["status"], witness=d["witness"], notes=d["notes"],
                   runtime_ms=d["runtime_ms"])


def run_suite(cfg=SuiteConfig()):
    """Checks x rings x kinds with applicability filtering, in stable order."""
    from .exprs import parse_ring_expression

    rings = []
    errors = []
    for expr in cfg.ring_exprs:
        try:
            rings.append((expr, parse_ring_expression(expr, cfg.caps)))
        except IdealSpacesError as exc:
            errors.append(SuiteRecord(id="ring", anchor="ring construction",
                                      ring=expr, kind="", status="error",
                                      witness=None, notes=str(exc)))

    items = []
    for cid in cfg.checks:
        for expr, R in rings:
            for kv in cfg.kinds:
                if REGISTRY[cid].applicable(kv):
                    items.append((cid, expr, R, kv))

    def run_item(item):
        cid, expr, R, kv = item
        t0 = perf_counter()
        try:
            rep = run_check(cid, R, kv, cfg.caps)
            status, witness, notes = rep.status, rep.witness, rep.notes
        except IdealSpacesError as exc:
            status, witness, notes = "error", None, str(exc)
        ms = round((perf_counter() - t0) * 1000.0, 3) if cfg.timings else None
        return SuiteRecord(id=cid, anchor=REGISTRY[cid].statement, ring=expr,
                           kind=kv, status=status, witness=witness, notes=notes,
                           runtime_ms=ms)

    return errors + [run_item(it) for it in items]


# ---------------------------------------------------------------------------
# homeomorphism utility


def verify_homeomorphism(f, T1, T2):
    """True iff the point map f (index map T1 -> T2) is a homeomorphism: the
    spaces have as many points as f has entries, and f is an embedding."""
    f = tuple(f)
    return len(f) == len(T1.spectrum) == len(T2.spectrum) and not _embedding_failure(T2, f, T1)


# ---------------------------------------------------------------------------
# counterexample search


def _split_top_level(text):
    """Split on the commas outside parentheses, so ``Z6xZ6/((2,2)),Z4`` gives
    two expressions."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _family_rings(family, caps):
    from .exprs import parse_ring_expression

    if family.startswith("zmod:"):
        lo, _, hi = family[5:].partition("..")
        return [parse_ring_expression(f"Z{n}", caps) for n in range(int(lo), int(hi) + 1)]
    if family.startswith("exprs:"):
        return [parse_ring_expression(e, caps) for e in _split_top_level(family[6:]) if e]
    raise IdealSpacesError(f"unknown family spec {family!r}; "
                           "use zmod:LO..HI or exprs:A,B,...")


def search_counterexamples(check_id, family, kinds=None, caps=DEFAULT_CAPS):
    """All (ring, kind) pairs in the family where the check's target property
    fails, ordered by fewest spectrum points, then ring label, then kind."""
    if check_id not in REGISTRY:
        raise IdealSpacesError(f"unknown check {check_id}")
    kinds = tuple(kinds) if kinds else tuple(k.value for k in ALL_KINDS)
    rings = _family_rings(family, caps)
    results = []
    for R in rings:
        for kv in kinds:
            if not REGISTRY[check_id].applicable(kv):
                continue
            spec = make_spectrum(R, kv, caps)
            if not spec.points:
                continue
            rep = (check_mip(spec) if check_id in ("T03", "T24")
                   else run_check(check_id, R, kv, caps))
            if rep.fails:
                results.append({"ring": R.label, "kind": kv,
                                "points": len(spec), "witness": rep.witness,
                                "notes": rep.notes})
    results.sort(key=lambda r: (r["points"], r["ring"], r["kind"]))
    return results


def registry_markdown():
    """Traceability table generated from the registry (never hand-edited)."""
    lines = ["| id | form | kinds | title | statement |",
             "|----|------|-------|-------|-----------|"]
    for c in _CHECKS:
        kinds = "all" if c.kinds is None else ",".join(
            sorted(k.value for k in c.kinds))
        lines.append(f"| {c.id} | {c.form} | {kinds} | {c.title} | {c.statement} |")
    return "\n".join(lines) + "\n"
