"""Verdict reports and JSON-serializable witness builders.

A report carries the outcome of one check: ``holds``, ``fails``, or
``vacuous``.  A failing report always carries a machine-checkable witness
built from element indices alongside the human-readable names.
"""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class VerdictReport:
    check: str
    status: str
    witness: dict | None = None
    notes: str = ""

    def __post_init__(self):
        if self.status not in (HOLDS, FAILS, VACUOUS):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAILS and self.witness is None:
            raise ValueError("failing verdicts must carry a witness")

    @property
    def holds(self):
        return self.status == HOLDS

    @property
    def fails(self):
        return self.status == FAILS


def w_ideal(a):
    return {"ideal": a.name, "elements": sorted(int(x) for x in a.members)}


def w_ideals(ideals):
    return [w_ideal(a) for a in ideals]


def w_point_set(ps):
    return {"points": [p.name for p in ps.ideals],
            "indices": sorted(ps.indices)}
