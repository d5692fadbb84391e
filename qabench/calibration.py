"""Scale measured times to a reference machine speed.

On a shared two-vCPU machine the same run can take 25% more or less wall
time from one minute to the next, because the speed of the virtual CPU
switches between a fast and a slow mode (CPU time moves with wall time, so
this is not time stolen by the hypervisor). Averaging within a run does not
remove it: a whole run may fall in the slow mode.

So the benchmark times a fixed kernel of interpreter and small-numpy work at
short intervals all through the run, and scales every measured time by
``REFERENCE_S / kernel time``, the kernel time being the mean of the samples
just before and just after the measured interval. A change to the
package moves the scaled times exactly as it moves the raw ones; a change in
the machine's speed moves the kernel too and cancels out.
"""

from __future__ import annotations

import bisect
import itertools
import time

import numpy as np

REFERENCE_S = 170e-6  # kernel time at the reference speed
EVERY_S = 0.02  # at most this long between two samples while measuring

_TABLE = np.arange(729.0).reshape(9, 81)


def kernel() -> float:
    acc = 0.0
    seen: dict[tuple[int, ...], int] = {}
    for i, key in enumerate(itertools.product(range(6), repeat=3)):
        seen[key] = i
        if key[::-1] in seen:
            acc += seen[key[::-1]]
    for _ in range(8):
        acc += float((_TABLE * _TABLE[::-1]).sum(axis=0)[3])
    return acc


class Calibrator:
    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample ended
        self.seconds: list[float] = []  # kernel time of each sample

    def sample(self) -> None:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.seconds.append(best)

    def tick(self) -> None:
        """Sample unless the last sample is more recent than ``EVERY_S``."""

        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end``, at the reference speed.

        The machine's speed over the interval is taken from the last sample
        before it and the first one after it.
        """

        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        kernel_s = (self.seconds[before] + self.seconds[after]) / 2
        return (end - start) * REFERENCE_S / kernel_s
