"""Host-speed normalisation of the benchmark's timings.

The vCPUs of a shared 2-vCPU host do not run at one speed: a fixed
pure-Python loop alternates between two rates about 1.6x apart, in
stretches from under a second to minutes, whatever the benchmark does.
Wall-clock medians of identical work then move by up to 1.7x between
sets of runs taken minutes apart, far beyond any useful regression
bound.

So every run times a short fixed probe loop between its ops (at most
once per ``interval_s``) and reports its times at a *reference CPU
speed*: each time is multiplied by ``REFERENCE_S`` over the run's mean
probe time, weighted by how long each probe stands for. The shape of
the latency distribution is left as measured; only its scale moves. All
processes of a run are pinned to one CPU, so the probe measures the CPU
the engine runs on. On a CPU that steadily runs the probe in
``REFERENCE_S`` the reported times equal wall-clock times; the raw
wall-clock figures and the probe statistics go to standard error.
"""

from __future__ import annotations

import os
import time
from typing import Callable

__all__ = ["REFERENCE_S", "SpeedClock", "pin_to_one_cpu", "scaled"]

#: Probe loop iterations; one probe is the faster of two such loops, so
#: an interrupt landing in one of them does not skew the reading.
PROBE_LOOPS = 2500
#: Probe time on the reference CPU: the fast state of the 2-vCPU Xeon
#: host the benchmark was tuned on (CPython 3.11).
REFERENCE_S = 0.00031


def _probe_loop() -> None:
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


def pin_to_one_cpu() -> int:
    """Pin this process (and what it forks later) to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedClock:
    """Speed probes taken between ops, and the run's speed factor."""

    def __init__(
        self, interval_s: float = 0.02, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self._interval = interval_s
        #: When each probe ended, and its time.
        self._ends: list[float] = []
        self._durations: list[float] = []

    def probe(self) -> None:
        """Time the probe now."""
        best = float("inf")
        for _ in range(2):
            began = self._clock()
            _probe_loop()
            best = min(best, self._clock() - began)
        self._ends.append(self._clock())
        self._durations.append(best)

    def tick(self) -> None:
        """Probe if ``interval_s`` has passed since the last probe."""
        if not self._ends or self._clock() - self._ends[-1] >= self._interval:
            self.probe()

    def mean_probe_s(self) -> float:
        """Mean probe time, each probe weighted by the time until the next."""
        if len(self._durations) < 2:
            raise ValueError("a run needs at least two speed probes")
        weights = [b - a for a, b in zip(self._ends, self._ends[1:])]
        pairs = zip(self._durations, weights)
        return sum(d * w for d, w in pairs) / sum(weights)

    def factor(self) -> float:
        """What a wall-clock time of this run is multiplied by."""
        return REFERENCE_S / self.mean_probe_s()

    @property
    def probes(self) -> list[float]:
        """Every probe time so far, in seconds."""
        return list(self._durations)


def scaled(figures: dict[str, float], factor: float) -> dict[str, float]:
    """*figures* at the reference speed: times (``*_ms``, ``*_s``) times
    *factor*, rates (``*_ops_s``) divided by it, the rest unchanged."""
    result = {}
    for name, value in figures.items():
        if name.endswith("_ops_s"):
            value = value / factor
        elif name.endswith(("_ms", "_s")):
            value = value * factor
        result[name] = value
    return result
