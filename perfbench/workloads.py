"""Workload definitions: inputs from a seed, the timed call, and its records.

A record is ``[id, ring, kind, status, witness]``.  ``status`` is one of
``holds``, ``fails``, ``vacuous`` or ``error``.  ``search`` reports only the
failing instances, so its records are ``fails`` (with the search witness) or
``holds`` (no counterexample found); each (ring, kind) pair is one record.

Nothing here imports ``idealspaces`` at module level, so the parent process
can draw inputs and compare goldens without loading the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The default suite: what `idealspaces verify` runs.
SUITE_RINGS = ("Z2", "Z4", "Z6", "Z8", "Z12", "Z36", "Z2xZ2xZ2", "Z2xZ4", "Z6xZ6")
# 64 elements but only 7 ideals: cost follows ring size.
DEEP_RINGS = ("Z64",)
# 16-32 ideals and spectra of up to 31 points: cost follows lattice size.
WIDE_RINGS = ("Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2")
SEARCH_CHECK = "T03"
SEARCH_ZMOD = tuple(f"Z{n}" for n in range(2, 65))
# Ring expressions drawn per seed from each stratum of the committed pool.
SEARCH_DRAW = 4
SEARCH_STRATA = ("product", "quotient", "localization")

WORKLOADS = ("suite", "search", "deep", "wide")
RING_METRIC_LABELS = SUITE_RINGS + DEEP_RINGS + WIDE_RINGS
COMPLETED = ("holds", "fails", "vacuous")


def load_golden(name):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def golden_records(name):
    """Every golden record of a workload.  ``search.json`` stores only the
    records that are not ``holds``; the rest of its pool holds."""
    data = load_golden(name)
    if name != "search":
        return data["records"]
    stored = {tuple(r[:3]): r for r in data["records"]}
    exprs = SEARCH_ZMOD + tuple(e for s in SEARCH_STRATA for e in data["pool"][s])
    return [stored.get((SEARCH_CHECK, e, k), [SEARCH_CHECK, e, k, "holds", None])
            for e in exprs for k in data["kinds"]]


def search_family(seed):
    """Z2..Z64 plus SEARCH_DRAW expressions per stratum, drawn from ``seed``.

    Each stratum of the pool is sorted by ring size and cut into SEARCH_DRAW
    bands with one draw per band, so every draw costs about the same and
    the seed moves the family without moving its cost much.
    """
    pool = load_golden("search")["pool"]
    rng = random.Random(seed)
    drawn = []
    for stratum in SEARCH_STRATA:
        exprs = pool[stratum]
        for band in range(SEARCH_DRAW):
            lo = band * len(exprs) // SEARCH_DRAW
            hi = (band + 1) * len(exprs) // SEARCH_DRAW
            drawn.append(exprs[rng.randrange(lo, hi)])
    return SEARCH_ZMOD + tuple(drawn)


def ring_exprs(name, seed):
    """The ring expressions a workload runs on; only ``search`` uses the seed."""
    if name == "suite":
        return SUITE_RINGS
    if name == "deep":
        return DEEP_RINGS
    if name == "wide":
        return WIDE_RINGS
    if name == "search":
        return search_family(seed)
    raise ValueError(f"unknown workload {name!r}")


def build_inputs(name, seed):
    """Set-up: parse every ring expression of the workload (validating it)."""
    from idealspaces import parse_ring_expression

    exprs = ring_exprs(name, seed)
    for expr in exprs:
        parse_ring_expression(expr)
    return exprs


def kinds():
    from idealspaces import ALL_KINDS

    return tuple(k.value for k in ALL_KINDS)


def timed_call(name, exprs):
    """Run the workload on its inputs; returns the raw program output."""
    import idealspaces as I

    if name == "suite":
        return I.run_suite(I.SuiteConfig())
    if name in ("deep", "wide"):
        out = []
        for expr in exprs:
            out.extend(I.run_suite(I.SuiteConfig(ring_exprs=(expr,))))
        return out
    if name == "search":
        try:
            return I.search_counterexamples(SEARCH_CHECK, "exprs:" + ",".join(exprs))
        except I.IdealSpacesError as exc:
            return exc
    raise ValueError(f"unknown workload {name!r}")


def to_records(name, exprs, out):
    """Normalise the program output of ``timed_call`` into records."""
    if name != "search":
        return [[r.id, r.ring, r.kind, r.status, r.witness] for r in out]
    all_kinds = kinds()
    if isinstance(out, Exception):
        return [[SEARCH_CHECK, e, k, "error", None] for e in exprs for k in all_kinds]
    fails = {(r["ring"], r["kind"]): r["witness"] for r in out}
    return [[SEARCH_CHECK, e, k, "fails", fails[e, k]] if (e, k) in fails
            else [SEARCH_CHECK, e, k, "holds", None]
            for e in exprs for k in all_kinds]
