"""Host-speed calibration: a fixed piece of CPU work, timed next to every
timed call.

The benchmark runs on a shared host whose speed changes by up to 40% for
tens of seconds at a time, and the same change slows this fixed work.  A
time is reported at the reference speed: the measured time multiplied by
REFERENCE_S over the median of the calibration samples taken around it.
A change to the program moves the scaled times as it moves wall time; a
change in the host's speed moves both the instance and its calibration
samples, and largely cancels.  The kernel mixes a pure-Python integer
loop with small numpy updates, like the library's own inner loops.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds that sample() takes on the reference machine (see README.md) in
# its fast periods, so that scaled times read as that machine's wall time
# then.  The median over whole runs ranged from 2.7 to 4.6 ms.
REFERENCE_S = 0.0030

# Calibration samples on each side of a call that make up its scale.
NEIGHBOURS = 2

_MATRIX = np.random.default_rng(0).random((48, 48))


def sample() -> float:
    """Seconds that the fixed calibration work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(26000):
        total += i * i % 7
    a = _MATRIX.copy()
    for k in range(96):
        a -= np.outer(a[:, k % 48], a[k % 48]) * 1e-3
    return time.perf_counter() - start


def scales(samples: list[float]) -> list[float]:
    """For each sample position, REFERENCE_S over the median of the samples
    within NEIGHBOURS positions of it."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
