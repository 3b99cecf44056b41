"""The closed-subbase topology on a spectrum and its point-set properties.

The distinct hulls {h(a) : a in Idl(R)} form a closed subbase.  Every hull is
an up-set of the points under inclusion, and the hull of a point p is ↑p, so
on a finite spectrum the closed sets are exactly the up-sets (the Alexandroff
topology of the inclusion order).  ``TopologySpace.above[j]`` is the closure
of point j, one row of the spectrum's hull table, and every predicate here
reads it: closures, irreducible closed sets, separation, closedness, and
connectedness (the components are the point closures merged where they
overlap).  The closed family itself is enumerated only for display, on first
read, under the ``max_closed_sets`` cap of the call that built the space.
Closed sets are bitmasks over spectrum points, and exceeding a cap raises
instead of approximating.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, HypothesisViolated, MixedRings, NoPartitionFound
from .ideals import enumerate_ideals, jacobson_radical
from .reports import FAILS, HOLDS, VerdictReport, w_ideal, w_point_set
from .rings import _bits
from .spectra import PointSet, has_partition_of_unity, hull_mask


class TopologySpace:
    """A spectrum as a space, read off its point order.

    ``above[j]`` is the mask of the points containing point j, which is both
    h(points[j]) and the closure of {points[j]}; a mask is closed iff it is an
    up-set, i.e. holds ``above[j]`` for each of its points j.  The closed
    family (every union of ``above`` rows) is enumerated lazily, on the first
    read of ``closed_masks``, and raises CapExceeded as soon as it counts more
    than ``max_closed`` sets; no predicate or check reads it.  Every up-set is
    a union of hulls, so the closed base is the closed family.
    """

    def __init__(self, spectrum, max_closed):
        self.spectrum = spectrum
        self.max_closed = max_closed
        self.above = spectrum.above

    @cached_property
    def subbase_masks(self):
        return tuple(sorted(set(self.spectrum.hulls)))

    @cached_property
    def closed_masks(self):
        closed = {0}
        for row in self.above:
            for c in list(closed):
                if c | row not in closed:
                    closed.add(c | row)
                    if len(closed) > self.max_closed:
                        raise CapExceeded(f"closed base exceeds cap {self.max_closed}")
        return tuple(sorted(closed))

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
    def closed_family(self):
        return tuple(PointSet(self.spectrum, m) for m in self.closed_masks)

    def is_closed(self, mask):
        """Whether the mask is an up-set: it holds the closure of each point."""
        return all(row & ~mask == 0 for j, row in enumerate(self.above) if mask >> j & 1)

    @property
    def is_discrete(self):
        return all(row == 1 << j for j, row in enumerate(self.above))

    def __repr__(self):
        return (f"TopologySpace({self.spectrum.label}: |subbase|={len(self.subbase_masks)}, "
                f"|base|={len(self.base_masks)}, |closed|={len(self.closed_masks)})")


def generate_topology(spec, caps=DEFAULT_CAPS):
    """The topology of a spectrum under this call's closed-family cap.

    The point order is the spectrum's own ``above`` table, so a space costs
    almost nothing to build and none is kept between calls."""
    return TopologySpace(spec, caps.max_closed_sets)


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
    cls, pos = T.above, T.spectrum.point_positions
    for i in (pos[k] for k in T.spectrum.lattice.witness_indices if pos[k] is not None):
        if cls[i] != 1 << i:
            p = T.spectrum.points[i]
            return VerdictReport("t1", FAILS, witness={
                "point": w_ideal(p),
                "closure": w_point_set(PointSet(T.spectrum, cls[i]))},
                notes=f"{{{p.name}}} is not closed")
    return VerdictReport("t1", HOLDS)


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
    irr = irreducible_closed_sets(T)
    for ps, gens in irr:
        if len(gens) != 1:
            return VerdictReport("sober", FAILS, witness={
                "set": w_point_set(ps),
                "generic_points": [T.spectrum.points[i].name for i in gens]},
                notes=f"irreducible closed set with {len(gens)} generic points")
    return VerdictReport("sober", HOLDS, notes=f"{len(irr)} irreducible closed sets")


def components(T):
    """Connected components as ascending masks: the point closures, merged
    where they overlap.  Points i ⊆ j share j, and a shared point k of two
    closures links i ⊆ k ⊇ j, so these are the classes of the comparability
    graph, whose unions are exactly the clopen sets."""
    comps = []
    for row in T.above:
        rest = [c for c in comps if not c & row]
        comps = rest + [reduce(or_, (c for c in comps if c & row), row)]
    return sorted(comps)


def is_connected(T):
    """No partition of the space into two nonempty closed sets.

    The witness A is the component with the smallest mask, the smallest
    nonempty clopen set; B is the rest of the space.
    """
    comps = components(T)
    if len(comps) > 1:
        a = comps[0]
        return VerdictReport("connected", FAILS, witness={
            "A": w_point_set(PointSet(T.spectrum, a)),
            "B": w_point_set(PointSet(T.spectrum, T.full_mask & ~a))},
            notes="clopen partition found")
    return VerdictReport("connected", HOLDS)


def is_quasi_compact(T):
    """Trivially holds on finite spaces; the note records the subbase pathway."""
    pou = has_partition_of_unity(T.spectrum)
    note = "finite space, so quasi-compact outright; "
    note += ("partition-of-unity holds, so the Alexander-subbase argument applies"
             if pou else "partition-of-unity fails here, so only finiteness applies")
    return VerdictReport("quasi_compact", HOLDS, notes=note)


def subbase_pair(T):
    """The first pair (a, b) of lattice indices of canonical kernel ideals, in
    witness order, whose hulls are nonempty, disjoint and cover the space, or
    None."""
    spec = T.spectrum
    hulls = spec.hulls
    # the lattice is in ascending order, so the largest ideal per hull wins
    largest = {m: i for i, m in enumerate(hulls)}
    ordered = [i for i in spec.lattice.witness_indices if hulls[i] and largest[hulls[i]] == i]
    for n, a in enumerate(ordered):
        for b in ordered[n:]:
            if hulls[a] & hulls[b] == 0 and hulls[a] | hulls[b] == T.full_mask:
                return a, b
    return None


def strongly_disconnects(T, family="subbase"):
    """Two nonempty disjoint members of the chosen family covering the space.

    Subbase pairs are reported with the canonical kernel ideals behind the
    sets, ordered by the canonical witness order on those ideals.  The base
    is the whole closed family, so its pairs are the clopen partitions; the
    first in (−size, mask) order is A = X minus the smallest component (the
    larger mask on ties) and B = that component.
    """
    if family not in ("subbase", "base"):
        raise ValueError("family must be 'subbase' or 'base'")
    spec = T.spectrum
    if family == "subbase":
        pair = subbase_pair(T)
        size = {"members": len(T.subbase_masks)}
        if pair:
            masks = [spec.hulls[i] for i in pair]
            ideals = {k: w_ideal(spec.lattice.ideals[i]) for k, i in zip("ab", pair)}
    else:
        comps = components(T)
        pair, size, ideals = len(comps) > 1, {"components": len(comps)}, {}
        if pair:
            b = min(comps, key=lambda m: (bin(m).count("1"), -m))
            masks = [T.full_mask & ~b, b]
    if not pair:
        return VerdictReport("strongly_disconnects", FAILS, witness={"family": family, **size},
                             notes=f"no disjoint covering pair in the {family}")
    return VerdictReport("strongly_disconnects", HOLDS, witness={
        "A": w_point_set(PointSet(spec, masks[0])),
        "B": w_point_set(PointSet(spec, masks[1])), **ideals},
        notes=f"{family} pair covers the space disjointly")


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
    if len(jacobson_radical(R)) != 1:
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
    for x in _bits(a.mask):
        for y in _bits(b.mask):
            if add[x][y] == R.one:
                if mul[x][y] != R.zero or mul[x][x] != x:
                    raise HypothesisViolated(
                        "decomposition of 1 is not orthogonal idempotent")
                if x in (R.zero, R.one):
                    raise HypothesisViolated("extracted idempotent is trivial")
                return x
    raise NoPartitionFound(f"{a.name} + {b.name} != R")
