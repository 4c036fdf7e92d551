"""Host-speed calibration: the CPU time of a fixed piece of work, run between ops.

On a shared host the CPU's speed drifts by up to 2x over seconds, and
every op slows with it.  The benchmark runs ``calibrate`` after each op,
outside the timed region, and scales the op's CPU time by the reference
calibration time over the mean of the calibrations just before and just
after it.  The reported times are thus the op's CPU time at a host speed
at which one calibration takes ``REFERENCE_S``.  The work is benchmark
code, never contact3, so a change to the library does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# CPU time of one calibration at the reference speed.  It defines the unit
# of the reported times; only ratios between runs on one host mean anything.
REFERENCE_S = 1e-3


def _work() -> float:
    # the kind of work contact3 does: Python arithmetic, 3x3 numpy algebra
    # and one pass over an array larger than the first-level cache
    m = np.eye(3) + np.arange(9.0).reshape(3, 3) / 17.0
    acc = 0.0
    for i in range(40):
        v = m @ np.array([1.0, 0.01 * i, 0.5])
        acc += float(np.sqrt(v @ v))
        m = 0.999 * m + 1e-3 * np.outer(v, v) / (1.0 + v @ v)
    s = 0
    for i in range(3000):
        s += (i * i) % 7
    return acc + s + float(np.sin(np.linspace(0.0, 1.0, 20000)).sum())


def calibrate() -> float:
    """CPU seconds of one calibration, run after an untimed one so its caches are warm."""
    _work()
    t0 = time.process_time()
    _work()
    return time.process_time() - t0


def at_reference(cpu_s: float, cal_before: float, cal_after: float) -> float:
    """``cpu_s`` scaled to the reference speed by the calibrations around it."""
    return cpu_s * 2.0 * REFERENCE_S / (cal_before + cal_after)
