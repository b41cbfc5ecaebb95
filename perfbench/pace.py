"""Host-speed reference: a fixed computation timed between ops.

The shared hosts this benchmark runs on change speed by tens of percent
within seconds, and stay fast or slow for minutes at a time; process CPU time
follows wall time, so the whole machine runs slower, not just this process.
To keep that out of the reported latencies, a short burst of
``reference_slice`` runs between ops, once per ``BURST_EVERY_S`` of op time
(after every op, for ops that long). The slice is plain Python loops over
small numpy arrays, like capreq's own LP code, but shares no code with
capreq, so a change to capreq cannot change it. An op's latency is reported scaled by
``REF_NOMINAL_S / t_ref``, where ``t_ref`` is the median slice time of the
bursts within ``WINDOW_S`` of the op: milliseconds at the host speed at
which one slice takes ``REF_NOMINAL_S``. The host's speed changes within
tenths of a second, so only the bursts next to an op tell its speed. Raw wall-clock figures go to the run's descriptors.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.6e-3   # one slice on the fast phase of a 2-core host (2.0 GHz)
REF_SHARE = 0.05         # reference time, as a share of the op time before it
BURST_EVERY_S = 0.02     # op time between bursts
MIN_SLICES, MAX_SLICES = 2, 40
WINDOW_S = 0.05

_TABLEAU = np.array([[((3 * i + 7 * j) % 11) - 4.5 + 0.1 * j for j in range(10)]
                     for i in range(8)])


def reference_slice(iters: int = 30) -> int:
    """A fixed ratio-test-and-pivot loop on an 8 x 10 array (about 0.6 ms)."""
    a = _TABLEAU.copy()
    seen: dict = {}
    for it in range(iters):
        j = int(np.argmax(np.abs(a[it % 8, :-1])))
        col = a[:, j]
        ratios = [abs(a[k, -1]) / abs(col[k]) if abs(col[k]) > 1e-9 else float("inf")
                  for k in range(8)]
        p = min(range(8), key=ratios.__getitem__)
        a = a - np.outer(col, a[p]) / (col[p] if abs(col[p]) > 1e-9 else 1.0)
        a[p] = _TABLEAU[p]
        a /= max(1.0, float(np.max(np.abs(a))))
        seen[(it, j, p)] = seen.get((it % 3, j), 0) + len(ratios)
    return sum(seen.values())


class Pace:
    """Reference-slice times of one run, by the time they were taken."""

    def __init__(self):
        self.at: list[float] = []      # burst midpoints, ascending
        self.slice_s: list[float] = []  # median slice time of each burst
        self.pending_s = 0.0            # op time since the last burst

    def after_op(self, seconds: float) -> None:
        self.pending_s += seconds
        if self.pending_s >= BURST_EVERY_S:
            self.burst(self.pending_s)
            self.pending_s = 0.0

    def burst(self, busy_s: float) -> None:
        """Time ``REF_SHARE * busy_s`` worth of slices (within the slice limits)."""
        n = min(MAX_SLICES, max(MIN_SLICES, round(REF_SHARE * busy_s / REF_NOMINAL_S)))
        times = []
        t_start = perf_counter()
        for _ in range(n):
            t0 = perf_counter()
            reference_slice()
            times.append(perf_counter() - t0)
        self.at.append((t_start + perf_counter()) / 2)
        self.slice_s.append(statistics.median(times))

    def factor(self, start: float, end: float) -> float:
        """``REF_NOMINAL_S`` over the median slice time of the bursts within
        ``WINDOW_S`` of the interval from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:   # no burst that close: take the next one, or the last
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REF_NOMINAL_S / statistics.median(self.slice_s[lo:hi])

    def timed(self, fn) -> tuple[float, float]:
        """(scaled seconds, wall seconds) of one call of ``fn``, bracketed by bursts."""
        self.burst(0.2)
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        self.burst(t1 - t0)
        return (t1 - t0) * self.factor(t0, t1), t1 - t0
