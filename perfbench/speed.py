"""Rescale measured times to a reference CPU speed.

On a shared two-vCPU virtual machine a fixed job's time was seen to swing
by half from one second to the next, and again over minutes, independently
on each vCPU.  A stage process therefore pins itself to one CPU and runs a
fixed kernel on a side thread every PERIOD_S, timing each run with that
thread's CPU clock.  A time measured on the main thread is rescaled by the
speed seen meanwhile: ``raw * REFERENCE_COST_S * mean(1 / kernel cost)``,
that is, seconds on a CPU that runs the kernel in REFERENCE_COST_S.
Raw wall times are kept beside every rescaled one.

The kernel is a k-d tree query, the operation ICP spends its time in, run
on warm caches.  On that VM, over repeated detector replays of fixed
inputs, times rescaled with it varied by 2% (coefficient of variation)
against 5-7% with a pure-Python loop and 11-17% raw; on the simulator and
on JSON decoding it also did best of the two (3-4% and 7%, against 5-8%
and 9%).
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np
from scipy.spatial import cKDTree

CPU_ENV = "PERFBENCH_CPU"
KERNEL_TREE_POINTS = 2000
KERNEL_QUERY_POINTS = 500
REFERENCE_COST_S = 0.35e-3
PERIOD_S = 0.025
# per-frame rescaling uses the kernel runs within this distance of the frame
FRAME_WINDOW_S = 0.5


def _kernel_inputs():
    rng = np.random.default_rng(0)
    return cKDTree(rng.random((KERNEL_TREE_POINTS, 3))), rng.random((KERNEL_QUERY_POINTS, 3))


class Speedometer:
    """Kernel costs sampled on a daemon thread sharing this process's CPU."""

    def __init__(self):
        self.times: list[float] = []
        self.inverse_costs: list[float] = []
        self._prefix = [0.0]
        self._stop = threading.Event()
        self._tree, self._queries = _kernel_inputs()
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def start(self) -> "Speedometer":
        # both threads on one CPU, so the kernel sees the speed the stage sees;
        # run.py names the CPU when it runs passes side by side
        cpu = os.environ.get(CPU_ENV)
        os.sched_setaffinity(0, {int(cpu) if cpu else min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        if not self.times:
            self.times.append(time.perf_counter())
            self.inverse_costs.append(1.0 / max(self._kernel_cost(), 1e-9))
        for value in self.inverse_costs:
            self._prefix.append(self._prefix[-1] + value)

    def _kernel_cost(self) -> float:
        """CPU seconds of one query, timed after an untimed one has warmed
        the caches, so the cost does not depend on what the stage left in them."""
        self._tree.query(self._queries)
        tic = time.thread_time()
        self._tree.query(self._queries)
        return time.thread_time() - tic

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            cost = self._kernel_cost()
            if cost > 0.0:
                self.times.append(time.perf_counter())
                self.inverse_costs.append(1.0 / cost)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_COST_S * mean(1 / cost) over the samples in [t0, t1].

        With no sample inside, the nearest one stands in.  Call after stop().
        """
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return REFERENCE_COST_S * (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        nearest = min(max(lo, 0), len(self.times) - 1)
        if lo > 0 and (lo == len(self.times) or t0 - self.times[lo - 1] < self.times[lo] - t1):
            nearest = lo - 1
        return REFERENCE_COST_S * self.inverse_costs[nearest]

    def rescale(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.scale(t0, t1)

    def rescale_frames(self, marks: list[float]) -> list[float]:
        """Rescaled intervals between consecutive marks."""
        out = []
        for a, b in zip(marks, marks[1:]):
            mid = 0.5 * (a + b)
            window = max(FRAME_WINDOW_S, 0.5 * (b - a))
            out.append((b - a) * self.scale(mid - window, mid + window))
        return out
