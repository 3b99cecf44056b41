"""Enumeration caps.

Every exhaustive enumeration in the package is bounded by an explicit cap and
raises :class:`~idealspaces.errors.CapExceeded` instead of truncating.  The
defaults admit rings of up to 64 elements and spectra of up to 64 points.
Every ring built from an expression (products, quotients and localizations
of Z/n) is a principal ideal ring, so it has no more ideals than elements and
within the ring-size cap no spectrum goes past the point cap.  Other rings
may have more ideals than elements: F2[x1..x4]/m², built from tables, has 32
elements and 68 ideals.  An instance past a cap becomes an ``error`` record in the
suite report.  ``max_points`` guards only the topology (``generate_topology``), so it limits
only the checks that read one.  ``max_closed_sets`` guards only the displayed
closed family (``TopologySpace.closed_masks``), which no check enumerates.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Caps:
    max_ring_size: int = 64
    max_ideals: int = 4096
    max_points: int = 64
    max_closed_sets: int = 100_000
    max_hom_product: int = 4096  # cap on |R| * |R'| for hom enumeration

    def with_overrides(self, **kw):
        """Return a copy with the given fields replaced (None values ignored)."""
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_CAPS = Caps()
