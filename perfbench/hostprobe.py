"""Host-speed probe: a fixed piece of work timed between the program's calls.

The shared host this benchmark runs on changes speed by 10-30% over minutes
(see README, "Host speed"), and those phases are too long to average out in
one run.  So the timed call is interleaved with a probe: after a call of
``verify.make_spectrum`` returns (the first step of every check and of every
search instance), the probe runs if ``GAP_S`` has passed since the last one.
The probe's mean time over a pass measures how fast the host ran during that
pass, at the same moments and on the same core as the program.

The probe is independent of the program (plain Python and small numpy
arrays, like the program's own work), runs with the garbage collector off so
the program's heap does not reach into it, and its time is taken out of the
pass's wall time.  ``verdicts_per_s`` divides the wall time by
``host_factor() = mean probe time / REFERENCE_S``: the wall time the pass
would take on a host that runs the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# About the probe's fastest time on the 2-vCPU reference host (Python 3.11,
# numpy 2.4).  It only sets the scale of verdicts_per_s; changing it
# rescales every figure and must never happen between compared runs.
REFERENCE_S = 3.0e-4
GAP_S = 0.005
# A pass that calls make_spectrum too rarely tops up to this many probes.
MIN_PROBES = 50

_TABLE = np.arange(64, dtype=np.int64).reshape(8, 8)
_ROWS = _TABLE % 8


def _work():
    seen = set()
    last = {}
    acc = 0
    for a in range(40):
        for b in range(8):
            c = (a * b + 3) % 17
            seen.add((a, c))
            last[c] = a
        acc += int(np.array_equal(_TABLE[_ROWS[a % 8], :], _TABLE))
    return acc + len(seen) + len(last)


class HostProbe:
    def __init__(self):
        self.times = []
        self.last = 0.0

    def probe(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t1 - t0)
        self.last = t1

    def install(self, root):
        """Probe after ``root.verify.make_spectrum`` calls; False if it is gone."""
        verify = getattr(root, "verify", None)
        fn = getattr(verify, "make_spectrum", None)
        if fn is None:
            return False

        def probed(*args, **kw):
            try:
                return fn(*args, **kw)
            finally:
                if perf_counter() - self.last >= GAP_S:
                    self.probe()

        verify.make_spectrum = probed
        return True

    def top_up(self):
        while len(self.times) < MIN_PROBES:
            self.probe()

    def total_s(self):
        return sum(self.times)

    def host_factor(self):
        return sum(self.times) / len(self.times) / REFERENCE_S
