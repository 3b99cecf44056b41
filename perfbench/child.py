"""One cold-start pass of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE     (MODE: setup | run | trace)

Prints ``ready`` once ``idealspaces`` is imported and the inputs are built;
the parent times set-up from spawning this process to that line.  ``setup``
stops there.  ``run`` and ``trace`` then time the workload call and print one
JSON line: wall seconds, peak RSS of this process, the records and, for
``trace``, the per-layer metrics.  ``run`` interleaves the host-speed probe
(``hostprobe.py``) with the call and reports its factor; the probe's own time
is not in the wall time.

Each pass runs in its own process because the program's module caches hold
every ring they have seen: a second in-process pass would start warm and
report the memory of both passes.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (found beside this file)


def main(name, seed, mode):
    import idealspaces

    exprs = workloads.build_inputs(name, seed)
    print("ready", flush=True)
    if mode == "setup":
        return
    recorder = probe = None
    if mode == "run":
        from hostprobe import HostProbe

        probe = HostProbe()
        probe.install(idealspaces)
    if mode == "trace":
        from tracer import Recorder

        recorder = Recorder()
        recorder.install(idealspaces)
    t0 = perf_counter()
    out = workloads.timed_call(name, exprs)
    wall = perf_counter() - t0
    if probe:
        wall -= probe.total_s()
        probe.top_up()
    result = {
        "wall_s": wall,
        "host_factor": probe.host_factor() if probe else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": workloads.to_records(name, exprs, out),
        "trace": recorder.metrics() if recorder else None,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
