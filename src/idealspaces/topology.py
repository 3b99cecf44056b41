"""The closed-subbase topology on a spectrum and its point-set properties.

The distinct hulls {h(a) : a in Idl(R)} form a closed subbase.  Every hull is
an up-set of the points under inclusion, and the hull of a point p is ↑p, so
on a finite spectrum the closed sets are exactly the up-sets (the Alexandroff
topology of the inclusion order).  ``TopologySpace.above[j]`` is the closure
of point j, one row of the spectrum's hull table; closures, irreducible
closed sets and separation verdicts read it directly, and the closed family
is enumerated as the unions of its rows.  Closed sets are bitmasks over
spectrum points, and exceeding a cap raises instead of approximating.
"""

from __future__ import annotations

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, HypothesisViolated, MixedRings, NoPartitionFound
from .ideals import enumerate_ideals, jacobson_radical, witness_order
from .reports import FAILS, HOLDS, VerdictReport, w_ideal, w_point_set
from .spectra import PointSet, hull_mask


class TopologySpace:
    """A spectrum with its subbase and closed family, read off the point order.

    ``above[j]`` is the mask of the points containing point j, which is both
    h(points[j]) and the closure of {points[j]}.  The closed family is every
    union of ``above`` rows (the up-sets), enumerated once; it raises
    CapExceeded as soon as it counts more than ``max_closed`` sets.  Every
    up-set is a union of hulls, so the closed base is the closed family.
    """

    def __init__(self, spectrum, max_closed):
        self.spectrum = spectrum
        self.above = tuple(spectrum.hulls[i] for i in spectrum.lattice_indices)
        closed = {0}
        for row in self.above:
            for c in list(closed):
                if c | row not in closed:
                    closed.add(c | row)
                    if len(closed) > max_closed:
                        raise CapExceeded(f"closed base exceeds cap {max_closed}")
        self.closed_masks = tuple(sorted(closed))
        self._closed_set = frozenset(closed)
        # the lattice is in ascending order, so the largest ideal per hull wins
        self._kernel_ideal = dict(zip(spectrum.hulls, spectrum.lattice.ideals))
        self.subbase_masks = tuple(sorted(self._kernel_ideal))

    @property
    def ring(self):
        return self.spectrum.ring

    @property
    def full_mask(self):
        return self.spectrum.full_mask

    @property
    def base_masks(self):
        return self.closed_masks

    @property
    def subbase(self):
        return tuple(PointSet(self.spectrum, m) for m in self.subbase_masks)

    @property
    def base(self):
        return tuple(PointSet(self.spectrum, m) for m in self.base_masks)

    @property
    def closed_family(self):
        return tuple(PointSet(self.spectrum, m) for m in self.closed_masks)

    def is_closed(self, mask):
        return mask in self._closed_set

    def kernel_ideal_of(self, mask):
        """Canonical (largest) ideal whose hull is the given subbase mask."""
        return self._kernel_ideal[mask]

    @property
    def is_discrete(self):
        return len(self.closed_masks) == 1 << len(self.spectrum)

    def __repr__(self):
        return (f"TopologySpace({self.spectrum.label}: |subbase|={len(self.subbase_masks)}, "
                f"|base|={len(self.base_masks)}, |closed|={len(self.closed_masks)})")


def generate_topology(spec, caps=DEFAULT_CAPS):
    """The topology of a spectrum, built on first use and kept on it."""
    if len(spec) > caps.max_points:
        raise CapExceeded(f"{len(spec)} points exceed cap {caps.max_points}")
    T = spec.topology
    if T is None:
        T = spec.topology = TopologySpace(spec, caps.max_closed_sets)
    elif len(T.closed_masks) > caps.max_closed_sets:
        raise CapExceeded(
            f"closed family of {len(T.closed_masks)} sets exceeds cap {caps.max_closed_sets}")
    return T


def closure_of(T, S):
    """Smallest closed set containing S: the union of its points' closures."""
    mask = S.mask if isinstance(S, PointSet) else int(S)
    acc = 0
    for j, row in enumerate(T.above):
        if mask >> j & 1:
            acc |= row
    return PointSet(T.spectrum, acc)


# ---------------------------------------------------------------------------
# separation and connectedness verdicts


def is_t0(T):
    """Distinct points must have distinct closures."""
    cls = T.above
    n = len(T.spectrum)
    for i in range(n):
        for j in range(i + 1, n):
            if cls[i] == cls[j]:
                pi, pj = T.spectrum.points[i], T.spectrum.points[j]
                return VerdictReport("t0", FAILS, witness={
                    "p": w_ideal(pi), "q": w_ideal(pj),
                    "closure": w_point_set(PointSet(T.spectrum, cls[i]))})
    return VerdictReport("t0", HOLDS, notes=f"{n} point closures pairwise distinct")


def is_t1(T):
    """Every singleton must be closed."""
    cls = T.above
    for i in witness_point_indices(T):
        if cls[i] != 1 << i:
            p = T.spectrum.points[i]
            return VerdictReport("t1", FAILS, witness={
                "point": w_ideal(p),
                "closure": w_point_set(PointSet(T.spectrum, cls[i]))},
                notes=f"{{{p.name}}} is not closed")
    return VerdictReport("t1", HOLDS)


def witness_point_indices(T):
    """Point indices in canonical witness order (largest ideals first)."""
    pts = T.spectrum.points
    return sorted(range(len(pts)),
                  key=lambda i: (-len(pts[i].members), tuple(sorted(pts[i].members))))


def irreducible_closed_sets(T):
    """All nonempty irreducible closed sets with their generic points.

    A finite closed set is the union of its points' closures, so it is
    irreducible exactly when it is the closure of one of its points; its
    generic points are the points whose closure it is.
    """
    gens = {}
    for j, row in enumerate(T.above):
        gens.setdefault(row, []).append(j)
    return [(PointSet(T.spectrum, m), tuple(gens[m]))
            for m in sorted(gens, key=lambda m: (bin(m).count("1"), m))]


def is_sober(T):
    """Every nonempty irreducible closed set has exactly one generic point."""
    for ps, gens in irreducible_closed_sets(T):
        if len(gens) != 1:
            return VerdictReport("sober", FAILS, witness={
                "set": w_point_set(ps),
                "generic_points": [T.spectrum.points[i].name for i in gens]},
                notes=f"irreducible closed set with {len(gens)} generic points")
    return VerdictReport("sober", HOLDS,
                         notes=f"{len(irreducible_closed_sets(T))} irreducible closed sets")


def is_connected(T):
    """No partition of the space into two nonempty closed sets."""
    full = T.full_mask
    for a in T.closed_masks:
        comp = full & ~a
        if a and comp and T.is_closed(comp):
            return VerdictReport("connected", FAILS, witness={
                "A": w_point_set(PointSet(T.spectrum, a)),
                "B": w_point_set(PointSet(T.spectrum, comp))},
                notes="clopen partition found")
    return VerdictReport("connected", HOLDS)


def is_quasi_compact(T):
    """Trivially holds on finite spaces; the note records the subbase pathway."""
    pou = _has_pou(T)
    note = "finite space, so quasi-compact outright; "
    note += ("partition-of-unity holds, so the Alexander-subbase argument applies"
             if pou else "partition-of-unity fails here, so only finiteness applies")
    return VerdictReport("quasi_compact", HOLDS, notes=note)


def _has_pou(T):
    from .spectra import has_partition_of_unity
    return has_partition_of_unity(T.spectrum)


def strongly_disconnects(T, family="subbase"):
    """Two nonempty disjoint members of the chosen family covering the space.

    Witness pairs are reported with the canonical kernel ideals behind the
    sets; the pair is ordered by the canonical witness order on those ideals.
    """
    if family not in ("subbase", "base"):
        raise ValueError("family must be 'subbase' or 'base'")
    masks = T.subbase_masks if family == "subbase" else T.base_masks
    full = T.full_mask
    if family == "subbase":
        order = witness_order([T.kernel_ideal_of(m) for m in masks if m])
        ordered = [(hull_mask(T.spectrum, a), a) for a in order]
    else:
        ordered = [(m, None) for m in sorted(masks, key=lambda m: (-bin(m).count("1"), m))
                   if m]
    for i, (a_mask, a_ideal) in enumerate(ordered):
        for b_mask, b_ideal in ordered[i:]:
            if a_mask and b_mask and a_mask & b_mask == 0 and a_mask | b_mask == full:
                witness = {"A": w_point_set(PointSet(T.spectrum, a_mask)),
                           "B": w_point_set(PointSet(T.spectrum, b_mask))}
                if a_ideal is not None:
                    witness["a"] = w_ideal(a_ideal)
                    witness["b"] = w_ideal(b_ideal)
                return VerdictReport("strongly_disconnects", HOLDS, witness=witness,
                                     notes=f"{family} pair covers the space disjointly")
    return VerdictReport(
        "strongly_disconnects", FAILS,
        witness={"family": family, "members": len(masks)},
        notes=f"no disjoint covering pair in the {family}")


def extract_idempotent(T, pair):
    """Nontrivial idempotent from a disjoint covering hull pair (a, b).

    Requires zero Jacobson radical, a spectrum containing all maximal ideals,
    and hulls of a and b that are nonempty, disjoint, and covering; then the
    unique decomposition 1 = e + f with e in a, f in b yields the idempotent.
    """
    a, b = pair
    R = T.ring
    spec = T.spectrum
    if a.ring is not R or b.ring is not R:
        raise MixedRings("pair must be ideals of the space's ring")
    if len(jacobson_radical(R).members) != 1:
        raise HypothesisViolated("ring does not have zero Jacobson radical")
    lat = enumerate_ideals(R)
    for m in lat.maximal_ideals():
        if not spec.contains_ideal(m):
            raise HypothesisViolated(
                f"spectrum {spec.label} misses the maximal ideal {m.name}")
    ha, hb = hull_mask(spec, a), hull_mask(spec, b)
    if not ha or not hb:
        raise HypothesisViolated("both hulls must be nonempty")
    if ha & hb:
        raise HypothesisViolated("hulls are not disjoint")
    if ha | hb != spec.full_mask:
        raise HypothesisViolated("hulls do not cover the spectrum")
    add, mul = R.add_rows, R.mul_rows
    for x in sorted(a.members):
        for y in sorted(b.members):
            if add[x][y] == R.one:
                if mul[x][y] != R.zero or mul[x][x] != x:
                    raise HypothesisViolated(
                        "decomposition of 1 is not orthogonal idempotent")
                if x in (R.zero, R.one):
                    raise HypothesisViolated("extracted idempotent is trivial")
                return x
    raise NoPartitionFound(f"{a.name} + {b.name} != R")
