"""Golden check: compare run records against the verdicts committed in golden/.

A record matches when its status and witness equal the golden ones (notes are
not compared).  A record that is ``error`` in the golden file and now gives a
verdict is *resolved*, not a mismatch, so lifting a cap is not penalised.
"""

from __future__ import annotations

import json


def _key(rec):
    return tuple(rec[:3])


def _canon(witness):
    return json.dumps(witness, sort_keys=True, ensure_ascii=True)


def index(records):
    return {_key(r): (r[3], _canon(r[4])) for r in records}


def compare(records, golden, require_all=True):
    """Tally a run's records against a golden index (see :func:`index`).

    With ``require_all`` every golden record must also appear in the run;
    ``search`` draws a subset of its golden pool, so it passes False.
    """
    seen = set()
    tally = {"compared": 0, "mismatched": 0, "resolved": 0, "errors": 0}
    for rec in records:
        key = _key(rec)
        seen.add(key)
        tally["compared"] += 1
        status, witness = rec[3], _canon(rec[4])
        expected = golden.get(key)
        tally["errors"] += status == "error"
        if expected is None:
            tally["mismatched"] += 1
        elif expected[0] == "error" and status != "error":
            tally["resolved"] += 1
        elif expected != (status, witness):
            tally["mismatched"] += 1
    if require_all:
        missing = len(set(golden) - seen)
        tally["compared"] += missing
        tally["mismatched"] += missing
    return tally
