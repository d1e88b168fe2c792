"""Latency-modeling simulator wrapper for parallel benchmarks.

The synthetic :class:`~repro.cesm.CoupledRunSimulator` replays a recorded
measurement in microseconds, which hides the property the parallel layer
exists to exploit: on a real machine every benchmark is a *job* that
occupies a partition for minutes.  :class:`LatencySimulator` restores that
cost at a configurable scale — each measurement call sleeps
``scale * simulated_seconds`` (plus ``floor``) before returning — so
wall-clock speedup measurements mean something.  Sleeping releases the GIL,
so both the thread and supervised backends overlap it, exactly like real jobs
waiting in a queue.

The returned *values* are untouched: a latency-wrapped sweep is
bit-identical to the bare one, only slower.
"""

from __future__ import annotations

import time

__all__ = ["LatencySimulator"]


class LatencySimulator:
    """Wrap a simulator so each measurement costs proportional wall-clock.

    Picklable as long as the inner simulator is, so it drops into the
    supervised backend unchanged.
    """

    def __init__(self, inner, scale: float = 1e-4, floor: float = 0.0):
        self.inner = inner
        self.scale = float(scale)
        self.floor = float(floor)

    @property
    def case(self):
        return self.inner.case

    def _pay(self, seconds: float) -> None:
        cost = self.floor + self.scale * max(float(seconds), 0.0)
        if cost > 0.0:
            time.sleep(cost)

    def benchmark(self, component, nodes: int, repeat: int = 0) -> float:
        value = self.inner.benchmark(component, nodes, repeat=repeat)
        self._pay(value)
        return value

    def benchmark_sweep(self, component, node_counts) -> list:
        return [(int(n), self.benchmark(component, int(n))) for n in node_counts]

    def run_coupled(self, allocation):
        timings = self.inner.run_coupled(allocation)
        self._pay(timings.total)
        return timings
