"""Calibration probe: the machine's speed, measured beside every timing.

On a shared host the speed of the benchmark's vCPUs drifts with the load of
neighbouring machines: over a few minutes the same query's latency moves by
up to 1.7x, with CPU time tracking wall time (the process is not descheduled,
it runs slower). No estimator over raw times of one run removes a drift that
lasts longer than the run. So the untraced run times a fixed probe kernel
every ``EVERY_S`` seconds between the items it measures, and reports each
item's time scaled to the probe's reference speed:

    scaled = raw * REF_S / (median of the NEAR probes nearest the item)

The speed changes within a second, so the probes nearest the item say
most about it: over 5.5 minutes of interleaved queries, scaling by the 4
nearest left less spread than scaling by the 16 nearest or by the median
of the whole stretch.

The probe is the benchmark's own code, the same in every commit, so a change
to the program moves the scaled times exactly as it moves the raw ones. It
mixes the three kinds of work the program does: interpreter loops, a
50,000 x 32 float64 GEMV with a partition, and small numpy products pushed
through a heap. On the reference host, over 5.5 minutes of interleaved
set-ups and queries of the three 50k workloads, raw 30-second medians spread
0.14-0.35 (interquartile range over median) and scaled ones 0.03-0.07.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

# Probe time on the reference host (Intel Xeon at 2.1 GHz, 2 vCPU, 300 MB
# L3, numpy with one OpenBLAS thread), median over 5.5 minutes. Scaled
# times are in seconds of that host at that speed.
REF_S = 0.0042
# Time between probes; probes whose median scales an item; probes taken
# back to back on each side of a long item.
EVERY_S = 0.05
NEAR = 4
BATCH = 4


class Calibrator:
    """Probe times with their start times, and the scale they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((50_000, 32))
        self._v = rng.standard_normal(32)
        self._small = list(rng.standard_normal((50, 32)))
        self.starts: list[float] = []
        self.times: list[float] = []
        self._kernel()              # warm, untimed
        self._next = 0.0

    def _kernel(self) -> None:
        acc, table = 0, {}
        for i in range(15_000):
            acc += i * i
            table[i & 63] = acc
        s = self._x @ self._v
        np.argpartition(s, -10)[-10:]
        heap = []
        for a in self._small:
            for b in self._small[:10]:
                heapq.heappush(heap, (-float(a @ b), len(heap)))
        while heap:
            heapq.heappop(heap)

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self._next = t1 + EVERY_S

    def probes(self) -> None:
        """``BATCH`` probes back to back, on one side of a long item."""
        for _ in range(BATCH):
            self.probe()

    def due(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        end = start + seconds
        lo = max(0, bisect.bisect(self.starts, start) - NEAR)
        hi = bisect.bisect(self.starts, end) + NEAR
        by_gap = sorted(range(lo, min(hi, len(self.starts))),
                        key=lambda i: max(start - self.starts[i],
                                          self.starts[i] - end, 0.0))
        near = [self.times[i] for i in by_gap[:NEAR]]
        return seconds * REF_S / statistics.median(near)

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference."""
        return REF_S / statistics.median(self.times)
