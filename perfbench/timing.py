"""Machine-speed calibration and summary statistics.

The machines this benchmark runs on are shared: on a 2-core Xeon VM
(2.1 GHz) shared with other tenants, the same run took anywhere from 1x
to 1.7x as long within a few minutes, and CPU time drifted with wall
time, so the drift is machine speed rather than scheduling. Times are
therefore reported in *reference seconds*: seconds scaled by how fast the machine ran a fixed calibration
kernel (pure-Python float work plus small numpy calls, the same mix as
ccmkit's hot loops) while the timed code ran, relative to REF_SHOT_S. On
a machine running the kernel in exactly REF_SHOT_S the two coincide.

During a timed body, `SpeedMeter` samples the speed every TICK_S of wall
time from a SIGALRM handler (no threads), so the speed is measured across
the whole body rather than only before and after it; the handler's own
time is subtracted from the body's.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Typical time of one calibration shot on the reference machine (2-core
# Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4).
REF_SHOT_S = 4.0e-4
TICK_S = 0.02
BRACKET_SHOTS = 400
_A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])


def calibration_shot():
    """Time one run of the fixed calibration kernel, in seconds.

    The kernel is about 60% small numpy calls and 40% pure-Python float
    arithmetic: against timed ccmkit bodies, numpy calls alone tracked
    changes of machine speed by 0.74-0.82x, Python arithmetic alone by
    0.86-1.18x, and this mix by 0.85-0.94x.
    """
    v = np.array([1.0, 0.5, 0.25])
    acc = 0.0
    start = time.perf_counter()
    for i in range(60):
        v = _A @ v
        v = v / math.sqrt(float(v @ v))
    for i in range(1500):
        acc += (i * 0.5) % 7.0
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def bracket_speed():
    """Mean speed (reference seconds per second) over a run of shots."""
    return statistics.fmean(REF_SHOT_S / calibration_shot() for _ in range(BRACKET_SHOTS))


class SpeedMeter:
    """Context manager timing a body in seconds and in reference seconds."""

    def __enter__(self):
        self._speeds = [REF_SHOT_S / calibration_shot()]
        self._busy = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._speeds.append(REF_SHOT_S / calibration_shot())
        net = self.raw_s - self._busy
        self.net_s = net
        self.ref_s = net * statistics.fmean(self._speeds)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._speeds.append(REF_SHOT_S / calibration_shot())
        self._busy += time.perf_counter() - start


def summarize(values):
    """Median, quartiles, and the highest of p75/p90/p95/p99 with at least
    ten samples beyond it (None when there are fewer than 40 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    q1, q3 = (statistics.quantiles(ordered, n=4)[::2] if n >= 2
              else (ordered[0], ordered[0]))
    tail = None
    for pct in (99, 95, 90, 75):
        if n * (1.0 - pct / 100.0) >= 10.0:
            tail = (pct, float(np.percentile(ordered, pct)))
            break
    return {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3,
            "tail": tail}
