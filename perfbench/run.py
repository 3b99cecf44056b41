"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload {suite,search,deep,wide} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Every pass of the workload runs in a
fresh interpreter (``child.py``), so caches start cold and peak memory is that
pass's alone.  With ``--trace 0`` passes repeat until ``--seconds`` of timed
work (two passes at least) and the end-to-end metrics are medians over
passes.  With ``--trace 1``
one untraced and one traced pass give the per-layer metrics.  Every pass is
checked against the golden verdicts.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import golden  # noqa: E402  (found beside this file)
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# At least two passes, so one pass landing in a fast or slow host phase
# moves the median by half as much.
MIN_PASSES = 2
PASS_TIMEOUT_S = 170.0
# Stop starting passes once this much wall time is gone, so a run on a slow
# host still ends well inside its time limit.
RUN_BUDGET_S = 90.0

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_share": "ratio",
    "golden_match_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    # one thread, and string hashing fixed so traced counts repeat exactly
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_pass(name, seed, mode):
    """One child pass; returns its result dict with ``setup_s`` added."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), name, str(seed), mode],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env())
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} pass of {name} exited with {proc.returncode}")
    result = json.loads(out) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def check_pass(name, result, golden_index):
    """Add the golden tally and the verdict count to a pass result."""
    result["tally"] = golden.compare(result["records"], golden_index,
                                     require_all=name != "search")
    result["verdicts"] = sum(r[3] in workloads.COMPLETED for r in result["records"])
    return result


def _vps(p):
    """Verdicts per wall second, as measured."""
    return p["verdicts"] / p["wall_s"]


def _host_vps(p):
    """Verdicts per wall second at the reference host speed (hostprobe.py)."""
    return p["verdicts"] * p["host_factor"] / p["wall_s"]


def timed_run(name, seed, seconds, golden_index):
    start = perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or (sum(p["wall_s"] for p in passes) < seconds
                                       and perf_counter() - start < RUN_BUDGET_S):
        passes.append(check_pass(name, run_pass(name, seed, "run"), golden_index))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(name, seed, "setup")["setup_s"])
    med = statistics.median
    metrics = {
        "verdicts_per_s": med(_host_vps(p) for p in passes),
        "verdict_share": med(p["verdicts"] / p["tally"]["compared"] for p in passes),
        "golden_match_share": med(1 - p["tally"]["mismatched"] / p["tally"]["compared"]
                                  for p in passes),
        "setup_s": med(setups),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
    }
    return passes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(name, seed, golden_index):
    base = check_pass(name, run_pass(name, seed, "run"), golden_index)
    traced = check_pass(name, run_pass(name, seed, "trace"), golden_index)
    values = dict(traced["trace"])
    values["verify.resolved"] = traced["tally"]["resolved"]
    values["trace.overhead"] = _vps(base) / _vps(traced) if traced["verdicts"] else None
    units = tracer.metric_units()
    return [base, traced], {k: (values[k], u) for k, u in units.items()}


def summary(name, seed, passes, metrics):
    """Human-readable lines: every metric, and the golden check per pass."""
    lines = [f"workload {name}  seed {seed}  passes {len(passes)}"]
    for p in passes:
        t = p["tally"]
        host = f"host factor {p['host_factor']:.3f}; " if p.get("host_factor") else ""
        lines.append(
            f"  pass: {p['verdicts']} verdicts in {p['wall_s']:.3f} s; {host}"
            f"error_share {t['errors']}/{t['compared']}; "
            f"mismatch_share {t['mismatched']}/{t['compared']}; "
            f"resolved {t['resolved']}")
    for k, (v, unit) in metrics.items():
        lines.append(f"  {k} = {v} {unit}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "idealspaces" / "__init__.py").is_file():
        print(f"no idealspaces source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        golden_index = golden.index(workloads.golden_records(args.workload))
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed, golden_index)
        else:
            passes, metrics = timed_run(args.workload, args.seed, args.seconds,
                                        golden_index)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(summary(args.workload, args.seed, passes, metrics))
    attempted = sum(p["tally"]["compared"] for p in passes)
    failed = sum(p["tally"]["mismatched"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
