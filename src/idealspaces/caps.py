"""Enumeration caps.

Every exhaustive enumeration in the package is bounded by an explicit cap and
raises :class:`~idealspaces.errors.CapExceeded` instead of truncating.  The
defaults admit rings of up to 64 elements.  A ring may have more ideals than
elements (F2[x1..x4]/m², built from tables, has 32 elements and 68 ideals),
and ``max_ideals`` bounds the lattice that every table and spectrum grows
with.  An instance past a cap becomes an ``error`` record in the suite
report.  ``max_closed_sets`` guards only the displayed closed family
(``TopologySpace.closed_masks``), which no check enumerates.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    max_ring_size: int = 64
    max_ideals: int = 4096
    max_closed_sets: int = 100_000
    max_hom_product: int = 4096  # cap on |R| * |R'| for hom enumeration


DEFAULT_CAPS = Caps()
