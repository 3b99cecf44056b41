"""Self-tests of the benchmark (about 3 minutes).

The default pytest run collects only ``tests/``, so these run on request:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import golden
import hostprobe
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_and_units_are_well_formed():
    bench = _bench()
    entries = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.fullmatch(e["name"]), e["name"]
        assert "unit" not in e or UNIT.fullmatch(e["unit"]), e
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {e["name"]: e["unit"] for e in bench["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    res = _result(proc.stdout)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["metrics"]["golden_match_share"]["value"] == 1.0
    # the seed's cap errors: 86 of 620 records on wide, none elsewhere
    share = 534 / 620 if name == "wide" else 1.0
    assert res["metrics"]["verdict_share"]["value"] == share


def test_traced_counts_repeat_exactly():
    runs = [run.run_pass("suite", 0, "trace")["trace"] for _ in range(2)]
    counts = [{k: v for k, v in t.items() if not k.endswith("ms")
               and k != "cache.hit_ratio"} for t in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rings.ideal_ctor.calls"] == 88_653
    assert None not in runs[0].values()
    layer_ms = {k: v for k, v in runs[0].items()
                if k.endswith(".ms") and not k.startswith("verify.ring.")}
    assert max(layer_ms, key=layer_ms.get) == "rings.ideal_ctor.ms"


def test_perturbed_record_is_caught():
    records = [list(r) for r in workloads.golden_records("suite")]
    index = golden.index(records)
    assert golden.compare(records, index)["mismatched"] == 0
    fails = next(r for r in records[1:] if r[3] == "fails")
    holds = next(r for r in records[1:] if r[3] == "holds")
    fails[4] = dict(fails[4], extra=1)        # witness changed
    holds[3] = "vacuous"                      # status changed
    tally = golden.compare(records[1:], index)  # and one record missing
    assert tally["mismatched"] == 3
    assert tally["compared"] == len(records)


def test_a_resolved_cap_error_is_not_a_mismatch():
    records = [list(r) for r in workloads.golden_records("wide")]
    index = golden.index(records)
    err = next(r for r in records if r[3] == "error")
    err[3] = "holds"
    tally = golden.compare(records, index)
    assert (tally["resolved"], tally["mismatched"]) == (1, 0)


def test_seed_changes_only_the_search_family():
    for name in workloads.WORKLOADS:
        a, b = workloads.ring_exprs(name, 1), workloads.ring_exprs(name, 2)
        assert a == workloads.ring_exprs(name, 1)
        if name == "search":
            n = len(workloads.SEARCH_ZMOD)
            assert a[:n] == b[:n] and a[n:] != b[n:]
        else:
            assert a == b


def test_missing_entry_point_is_reported_as_null():
    root = types.ModuleType("fakepkg")
    root.exprs = types.SimpleNamespace(parse_ring_expression=lambda text: text)
    rec = tracer.Recorder()
    rec.install(root)
    metrics = rec.metrics()
    assert metrics["exprs.parse.calls"] == 0
    assert metrics["rings.ideal_ctor.calls"] is None
    assert metrics["verify.check.T01.ms"] is None
    assert set(metrics) <= set(tracer.metric_units())


def test_host_probe_tops_up_when_its_hook_is_gone():
    probe = hostprobe.HostProbe()
    assert not probe.install(types.ModuleType("fakepkg"))
    probe.top_up()
    assert len(probe.times) == hostprobe.MIN_PROBES
    assert probe.host_factor() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
