"""Regenerate the golden verdicts in perfbench/golden/ from the current source.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Run it only when a verdict or witness is meant to change, and say why in the
change that commits the new files.  ``search.json`` also fixes the pool of
product, quotient and localization expressions that the search workload
draws from; it holds the records of every pool ring, so any draw is covered.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def search_pool():
    """Every candidate expression of at most 64 elements that parses, per
    stratum, sorted by ring size (``search_family`` draws by size band)."""
    from idealspaces import IdealSpacesError, parse_ring_expression

    pairs = [(a, b) for a in range(2, 33) for b in range(a, 33) if a * b <= 64]
    divisors = [(n, d) for n in range(4, 65) for d in range(2, n) if n % d == 0]
    candidates = {
        "product": [f"Z{a}xZ{b}" for a, b in pairs],
        # the product index a is the element (0,1)
        "quotient": [f"Z{n}/({d})" for n, d in divisors]
                    + [f"Z{a}xZ{b}/({a})" for a, b in pairs],
        "localization": [f"Z{n}@({d})" for n, d in divisors]
                        + [f"Z{a}xZ{b}@({a})" for a, b in pairs],
    }
    pool = {}
    for stratum, exprs in candidates.items():
        sized = []
        for expr in exprs:
            try:
                sized.append((parse_ring_expression(expr).size, expr))
            except IdealSpacesError:  # e.g. localizing at a nilpotent
                continue
        pool[stratum] = [expr for _, expr in sorted(sized)]
    return pool


def compute_records(name):
    if name != "search":
        exprs = workloads.ring_exprs(name, 0)
        return None, workloads.to_records(name, exprs, workloads.timed_call(name, exprs))
    pool = search_pool()
    exprs = workloads.SEARCH_ZMOD + tuple(e for s in workloads.SEARCH_STRATA for e in pool[s])
    out = workloads.timed_call(name, exprs)
    if isinstance(out, Exception):
        raise out
    return pool, workloads.to_records(name, exprs, out)


def write(name):
    pool, records = compute_records(name)
    extra = ""
    if pool:  # search: store the pool, and only the records that do not hold
        records = [r for r in records if r[3] != "holds"]
        extra = (', "kinds": ' + json.dumps(workloads.kinds())
                 + ', "pool": ' + json.dumps(pool, indent=1))
    lines = ['{"records": [']
    lines.append(",\n".join(json.dumps(r, sort_keys=True, ensure_ascii=True)
                            for r in records))
    lines.append("]" + extra + "}")
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    (workloads.GOLDEN_DIR / f"{name}.json").write_text("\n".join(lines) + "\n",
                                                       encoding="utf-8")
    print(name, len(records), "records")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        write(name)
