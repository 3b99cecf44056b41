"""Span recorder that traces the program from outside, one layer per module.

``install`` wraps each layer's public entry points by rebinding the name in
every ``idealspaces`` module that holds it (``verify`` and friends use
``from .x import y``, so patching only the defining module would miss most
calls), and wraps the ``FiniteRing``, ``Ideal`` and ``RingHom`` constructors
on the class itself.  ``run_check`` is traced per check id and per ring.

Every ``.ms`` value is self time: a span's duration minus the part covered by
nested spans of other layers, so the layers partition the traced time.
``.calls`` counts entries into a layer from outside it.  For the three cached
builders the first call per (function, arguments) is a fill and later calls
are hits.  A layer whose entry point no longer exists reports ``None``.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

from workloads import RING_METRIC_LABELS

CHECK_IDS = tuple(f"T{i:02d}" for i in range(1, 25))

# layer -> (module, dotted attribute) entry points
LAYERS = {
    "exprs.parse": [("exprs", "parse_ring_expression")],
    "rings.ring_ctor": [("rings", "FiniteRing.__init__")],
    "rings.ideal_ctor": [("rings", "Ideal.__init__")],
    "rings.hom_ctor": [("rings", "RingHom.__init__")],
    "rings.quotient": [("rings", "make_quotient")],
    "rings.localize": [("rings", "localize"), ("rings", "multiplicative_closure")],
    "ideals.lattice": [("ideals", "enumerate_ideals")],
    "ideals.classify": [("ideals", "classify")],
    "ideals.arith": [("ideals", n) for n in (
        "generate_ideal", "ideal_sum", "ideal_intersect", "ideal_product",
        "radical", "contraction", "jacobson_radical")],
    "spectra.spectrum": [("spectra", "make_spectrum")],
    "spectra.hull": [("spectra", "hull"), ("spectra", "hull_mask")],
    "spectra.kernel": [("spectra", n) for n in ("kernel", "image_of_kernel", "x_radical")],
    "spectra.mip": [("spectra", "check_mip"), ("spectra", "kuratowski_union_axiom")],
    "spectra.contraction_property": [("spectra", "check_contraction_property")],
    "topology.generate": [("topology", "generate_topology")],
    "topology.predicates": [("topology", n) for n in (
        "closure_of", "is_t0", "is_t1", "irreducible_closed_sets", "is_sober",
        "is_connected", "is_quasi_compact", "strongly_disconnects",
        "extract_idempotent")],
}
CACHED = ("ideals.lattice", "spectra.spectrum", "topology.generate")
CHECK_ENTRY = ("verify", "run_check")


def metric_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer in CACHED:
            units[f"{layer}.fills"] = "count"
            units[f"{layer}.fill_ms"] = "ms"
        else:
            units[f"{layer}.ms"] = "ms"
        if layer == "topology.generate":
            units["topology.closed_sets"] = "count"
            units["topology.cap_errors"] = "count"
    for cid in CHECK_IDS:
        units[f"verify.check.{cid}.calls"] = "count"
        units[f"verify.check.{cid}.ms"] = "ms"
    for label in RING_METRIC_LABELS:
        units[f"verify.ring.{label}.ms"] = "ms"
    units["verify.resolved"] = "count"
    units["cache.fill_ms"] = "ms"
    units["cache.hit_ratio"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def _resolve(root, module, dotted):
    """(owner, attribute name, object) for ``root.module.dotted`` or None."""
    owner = getattr(root, module, None)
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    obj = getattr(owner, name, None) if owner is not None else None
    return None if obj is None else (owner, name, obj)


class Recorder:
    def __init__(self):
        self.stack = []                     # frames: [layer, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.fills = defaultdict(int)
        self.fill_s = defaultdict(float)
        self.hits = defaultdict(int)
        self.ring_s = defaultdict(float)
        self.filled = set()
        self.closed = {}
        self.closed_ok = True
        self.cap_errors = 0
        self.missing = set()

    # -- installation -----------------------------------------------------

    def install(self, root):
        """Wrap every entry point under the package ``root``."""
        found = _resolve(root, "errors", "CapExceeded")
        self._cap_exceeded = found[2] if found else ()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == root.__name__
                                         or n.startswith(root.__name__ + "."))]
        for layer, entries in LAYERS.items():
            for module, dotted in entries:
                self._wrap(root, modules, layer, module, dotted)
        self._wrap(root, modules, None, *CHECK_ENTRY)

    def _wrap(self, root, modules, layer, module, dotted):
        found = _resolve(root, module, dotted)
        if found is None:
            self.missing.add(layer if layer else "verify")
            return
        owner, name, fn = found
        if layer is None:
            wrapper = self._check_wrapper(fn)
        elif layer in CACHED:
            wrapper = self._cached_wrapper(layer, fn)
        else:
            wrapper = self._span_wrapper(layer, fn)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            return
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def _enter(self, layer):
        stack = self.stack
        if not stack or stack[-1][0] != layer:
            self.calls[layer] += 1
        frame = [layer, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame, t0):
        dur = perf_counter() - t0
        self.stack.pop()
        own = dur - frame[1]
        self.self_s[frame[0]] += own
        if self.stack:
            self.stack[-1][1] += dur
        return dur, own

    def _span_wrapper(self, layer, fn):
        rec = self

        def traced(*args, **kw):
            frame = rec._enter(layer)
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                rec._exit(frame, t0)
        return traced

    def _cached_wrapper(self, layer, fn):
        rec = self
        sig = inspect.signature(fn)

        def traced(*args, **kw):
            bound = sig.bind(*args, **kw)
            bound.apply_defaults()
            key = (layer, tuple(bound.arguments.values()))
            fill = key not in rec.filled
            frame = rec._enter(layer)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            except rec._cap_exceeded:
                if layer == "topology.generate":
                    rec.cap_errors += 1
                raise
            finally:
                _, own = rec._exit(frame, t0)
            if fill:
                rec.filled.add(key)
                rec.fills[layer] += 1
                rec.fill_s[layer] += own
                if layer == "topology.generate":
                    rec._count_closed(out)
            else:
                rec.hits[layer] += 1
            return out
        return traced

    def _count_closed(self, space):
        try:
            spec = space.spectrum
            key = (spec.ring, tuple(p.members for p in spec.points))
            self.closed[key] = len(space.closed_masks)
        except AttributeError:
            self.closed_ok = False

    def _check_wrapper(self, fn):
        rec = self
        sig = inspect.signature(fn)

        def traced(*args, **kw):
            bound = sig.bind(*args, **kw)
            cid, ring = list(bound.arguments.values())[:2]
            frame = rec._enter(f"verify.check.{cid}")
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                dur, _ = rec._exit(frame, t0)
                rec.ring_s[getattr(ring, "label", str(ring))] += dur
        return traced

    # -- report -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics this recorder measures (all but the run-level
        ``verify.resolved`` and ``trace.overhead``)."""
        out = {}
        for layer in LAYERS:
            lost = layer in self.missing
            out[f"{layer}.calls"] = None if lost else self.calls[layer]
            if layer in CACHED:
                out[f"{layer}.fills"] = None if lost else self.fills[layer]
                out[f"{layer}.fill_ms"] = None if lost else self.fill_s[layer] * 1e3
            else:
                out[f"{layer}.ms"] = None if lost else self.self_s[layer] * 1e3
        lost = "topology.generate" in self.missing
        out["topology.closed_sets"] = (None if lost or not self.closed_ok
                                       else sum(self.closed.values()))
        out["topology.cap_errors"] = None if lost else self.cap_errors
        lost = "verify" in self.missing
        for cid in CHECK_IDS:
            layer = f"verify.check.{cid}"
            out[f"{layer}.calls"] = None if lost else self.calls[layer]
            out[f"{layer}.ms"] = None if lost else self.self_s[layer] * 1e3
        for label in RING_METRIC_LABELS:
            out[f"verify.ring.{label}.ms"] = None if lost else self.ring_s[label] * 1e3
        cached = [c for c in CACHED if c not in self.missing]
        calls = sum(self.calls[c] for c in cached)
        out["cache.fill_ms"] = sum(self.fill_s[c] for c in cached) * 1e3 if cached else None
        out["cache.hit_ratio"] = (sum(self.hits[c] for c in cached) / calls
                                  if calls else None)
        return out
