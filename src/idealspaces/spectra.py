"""Spectra of ideals and the hull / kernel machinery.

A spectrum is the set of ideals of one classification kind, never including
the whole ring.  Point sets are bitmasks over the canonical point order, so
hulls, kernels, and the closures of the topology downstream are cheap integer
work.
Each spectrum tabulates the hull of every lattice ideal once, on first use,
and every check on it reads that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import MixedRings
from .ideals import (
    SpectrumKind,
    _check_ideal_cap,
    contraction,
    enumerate_ideals,
    witness_order,
)
from .reports import FAILS, HOLDS, VACUOUS, VerdictReport, w_ideal
from .rings import RingHom, _trusted_ideal


class Spectrum:
    """Ideals of one kind, in canonical order, with R excluded.

    Bit i of ``row``, the lattice's kind row without R, is set iff lattice
    ideal i is a point; ``lattice_indices`` lists those i in canonical order
    and ``witness_indices`` in witness order.  Two lazy tables over the
    ring's lattice depend on the points alone, not on which check asks, so
    each is built once per (ring, kind) and every check on this spectrum
    reads it:

    - ``hulls[i]`` is the point mask of h(a_i) for the i-th lattice ideal
      a_i: bit j is set iff a_i ⊆ points[j], read off the lattice's
      inclusion matrix.  Every ideal of R is in the lattice, so ``hull_mask``
      becomes a lookup;
    - ``x_radicals[i]`` is the lattice index of k(h(a_i)), the meet of the
      points containing a_i (R when there are none);
    - ``kernel_image`` holds the lattice indices of im(k) = {k(S) : S ⊆ X},
      every meet of a set of points and R = k(∅), in the canonical witness
      order: the quantifier domain of the meet-inclusion checks;
    - ``above[j]`` is the hull row of point j, the mask of the points
      containing it: the point order, which is also the topology's closures.
    """

    def __init__(self, lattice, kind):
        self.lattice = lattice
        self.ring = lattice.ring
        self.kind = SpectrumKind(kind)
        top = len(lattice) - 1  # R, the only ideal that is never a point
        self.row = lattice.kind_rows[self.kind] & ~(1 << top)
        self.lattice_indices = tuple(i for i in range(top) if self.row >> i & 1)
        self.points = tuple(lattice.ideals[i] for i in self.lattice_indices)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.label = f"{self.kind.title}({self.ring.label})"

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Spectrum({self.label}, {len(self)} points)"

    @cached_property
    def full_mask(self):
        return (1 << len(self.points)) - 1

    def contains_ideal(self, a):
        return a in self.index

    @cached_property
    def hulls(self):
        inside = np.packbits(self.lattice.leq[:, list(self.lattice_indices)],
                             axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in inside)

    @cached_property
    def above(self):
        return tuple(self.hulls[i] for i in self.lattice_indices)

    @cached_property
    def x_radicals(self):
        meet = self.lattice.meet.tolist()
        out = []
        for h in self.hulls:
            acc = len(self.lattice) - 1
            for j, p in enumerate(self.lattice_indices):
                if h >> j & 1:
                    acc = meet[acc][p]
            out.append(acc)
        return tuple(out)

    @cached_property
    def kernel_image(self):
        # fold the points in one at a time: the meets of subsets of the first
        # j+1 points are those of the first j, and those met with point j
        meet = self.lattice.meet
        out = {len(self.lattice) - 1}
        for p in self.lattice_indices:
            col = meet[:, p].tolist()
            out |= {col[i] for i in out}
        return tuple(i for i in self.lattice.witness_indices if i in out)

    @cached_property
    def witness_indices(self):
        return tuple(i for i in self.lattice.witness_indices if self.row >> i & 1)

    @cached_property
    def point_positions(self):
        """``point_positions[i]`` is the point index of lattice ideal i, or None."""
        pos = [None] * len(self.lattice)
        for j, i in enumerate(self.lattice_indices):
            pos[i] = j
        return tuple(pos)


def make_spectrum(R, kind, caps=DEFAULT_CAPS):
    """The spectrum of one kind, built once per ring; the caps hold on reuse too."""
    kind = SpectrumKind(kind)
    per_ring = R._derived.setdefault("spectra", {})
    spec = per_ring.get(kind)
    if spec is None:
        spec = per_ring[kind] = Spectrum(enumerate_ideals(R, caps), kind)
    else:
        _check_ideal_cap(spec.lattice, caps)
    return spec


@dataclass(frozen=True)
class PointSet:
    """A subset of a spectrum's points, stored as a bitmask."""

    spectrum: Spectrum
    mask: int

    @cached_property
    def indices(self):
        return tuple(i for i in range(len(self.spectrum)) if self.mask >> i & 1)

    @property
    def ideals(self):
        return tuple(self.spectrum.points[i] for i in self.indices)

    @property
    def is_empty(self):
        return self.mask == 0

    def __len__(self):
        return len(self.indices)

    def __contains__(self, a):
        i = self.spectrum.index.get(a)
        return i is not None and self.mask >> i & 1

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return "{" + ", ".join(p.name for p in self.ideals) + "}"


def full_point_set(spec):
    return PointSet(spec, spec.full_mask)


def hull(spec, a):
    """Points of the spectrum containing the ideal a (R itself allowed)."""
    return PointSet(spec, hull_mask(spec, a))


def hull_mask(spec, a):
    """Point mask of h(a), read from the spectrum's hull table."""
    if a.ring is not spec.ring:
        raise MixedRings("ideal belongs to a different ring")
    return spec.hulls[spec.lattice.index(a)]


def kernel(S):
    """Intersection of the member ideals; the empty set yields R (improper)."""
    R = S.spectrum.ring
    # a meet of ideals; the empty meet is R
    return _trusted_ideal(R, reduce(and_, (p.mask for p in S.ideals), (1 << R.size) - 1))


def image_of_kernel(spec):
    """{k(S) : S subseteq X}: the meets of the points, plus R from the empty
    subset.  Canonically ordered, smallest first."""
    return [spec.lattice.ideals[i] for i in sorted(spec.kernel_image)]


def x_radical(spec, a):
    """kernel(hull(a)): the intersection of all points containing a."""
    return kernel(hull(spec, a))


def _meet_inclusion_failure(spec, domain):
    """The first lattice-index triple (a, b, s) with a ∩ b ⊆ s, a ⊄ s and
    b ⊄ s, in the order of ``domain`` for a and b and then of the points in
    witness order for s, or None.  a ∩ b is looked up by its element mask,
    not read from the meet table the kind rows are defined from."""
    lat, domain, points = spec.lattice, list(domain), list(spec.witness_indices)
    masks, index = lat.masks, lat.mask_index
    inside = lat.leq[:, points]  # inside[i, s]: a_i ⊆ the s-th point
    out = ~inside[domain]
    meets = [[index[masks[a] & masks[b]] for b in domain] for a in domain]
    bad = inside[meets] & out[:, None, :] & out[None, :, :]
    if not bad.any():
        return None
    i, j, k = np.unravel_index(int(bad.argmax()), bad.shape)
    return domain[i], domain[j], points[k]


def check_mip(spec):
    """Meet-inclusion property over the kernel image.

    Quantifies a, b over image_of_kernel (R included, vacuously harmless) and
    s over spectrum points: a cap b subseteq s must force a subseteq s or
    b subseteq s.  Fails with the canonical witness triple (a, b, s), the
    first in witness order.
    """
    imk = spec.kernel_image
    triple = _meet_inclusion_failure(spec, imk)
    if triple:
        a, b, s = (spec.lattice.ideals[i] for i in triple)
        return VerdictReport(
            "mip", FAILS,
            witness={"a": w_ideal(a), "b": w_ideal(b), "s": w_ideal(s)},
            notes=f"{a.name} ∩ {b.name} ⊆ {s.name} but neither factor is contained")
    return VerdictReport("mip", HOLDS, notes=f"{len(imk)} kernel-image ideals checked")


def kuratowski_union_axiom(spec):
    """Whether S -> hull(kernel(S)) satisfies cl(A u B) = cl(A) u cl(B).

    Reduced to pairs over the kernel image: the axiom over all subset pairs
    is equivalent to hull(a cap b) = hull(a) u hull(b) for a, b in im(k).
    Returns (bool, witness_pair_or_None), the first failing pair in witness
    order.
    """
    lat, hulls, imk = spec.lattice, spec.hulls, spec.kernel_image
    meet = lat.meet[np.ix_(imk, imk)].tolist()
    for x, a in enumerate(imk):
        for y, b in enumerate(imk):
            if hulls[meet[x][y]] != hulls[a] | hulls[b]:
                return False, (lat.ideals[a], lat.ideals[b])
    return True, None


def has_partition_of_unity(spec):
    """True iff no proper ideal has an empty hull."""
    return all(spec.hulls[:-1])


def check_contraction_property(kind, f: RingHom, caps=DEFAULT_CAPS):
    """Whether preimages under f of target-spectrum points are source points."""
    kind = SpectrumKind(kind)
    src_spec = make_spectrum(f.source, kind, caps)
    tgt_spec = make_spectrum(f.target, kind, caps)
    if not tgt_spec.points:
        return VerdictReport("contraction-property", VACUOUS,
                             notes=f"{tgt_spec.label} is empty")
    for b in witness_order(tgt_spec.points):
        pre = contraction(f, b)
        if not src_spec.contains_ideal(pre):
            return VerdictReport(
                "contraction-property", FAILS,
                witness={"b": w_ideal(b), "preimage": w_ideal(pre), "hom": f.label},
                notes=f"f⁻¹({b.name}) = {pre.name} is not a {kind.title} point of {f.source.label}")
    return VerdictReport("contraction-property", HOLDS,
                         notes=f"{len(tgt_spec)} points contract into {src_spec.label}")
