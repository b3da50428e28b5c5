"""A failure-rate circuit breaker that records and reports.

Classic three-state machine over the outcomes of calls to one dependency
(here: the SQLite backend's reads). It refuses nothing — every call
still runs — so its job is to say whether the dependency is healthy:
its state feeds the service's degraded-mode reporting (``/readyz``,
``QuestService.degradation``).

* **closed** — outcomes land in a sliding window. When the window holds
  at least ``min_calls`` outcomes and the failure rate reaches
  ``failure_threshold``, the breaker trips open.
* **open** — the dependency is reported unhealthy for
  ``reset_timeout_s``; calls keep recording outcomes meanwhile.
* **half-open** — after the timeout, ``half_open_probes`` consecutive
  successes close the circuit; a failure re-opens it with a
  seeded-jittered timeout so a fleet of workers does not recover a
  shared dependency in lockstep.

The clock and the jitter RNG are injectable, so chaos tests drive the
whole state machine deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.forksafe import register_lock_holder


def _reset_breaker_lock(breaker: "CircuitBreaker") -> None:
    breaker._lock = threading.Lock()

from repro.errors import QuestError

__all__ = ["BreakerSettings", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerSettings:
    """Tunables for one :class:`CircuitBreaker`.

    Attributes:
        window: number of most-recent call outcomes considered.
        failure_threshold: failure rate over the window that trips the
            breaker (0 < rate <= 1).
        min_calls: outcomes required in the window before the rate is
            meaningful — a single early failure must not trip the circuit.
        reset_timeout_s: how long the circuit stays open before probing.
        half_open_probes: successes that close a half-open circuit.
        jitter: fraction of ``reset_timeout_s`` added as seeded random
            jitter each time the circuit (re-)opens.
    """

    window: int = 32
    failure_threshold: float = 0.5
    min_calls: int = 5
    reset_timeout_s: float = 5.0
    half_open_probes: int = 2
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise QuestError(f"window must be positive, got {self.window}")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise QuestError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        if self.min_calls <= 0:
            raise QuestError(f"min_calls must be positive, got {self.min_calls}")
        if self.reset_timeout_s <= 0:
            raise QuestError(
                f"reset_timeout_s must be positive, got {self.reset_timeout_s}"
            )
        if self.half_open_probes <= 0:
            raise QuestError(
                f"half_open_probes must be positive, got {self.half_open_probes}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise QuestError(f"jitter must be in [0, 1], got {self.jitter}")


class CircuitBreaker:
    """Thread-safe breaker shared by every caller of one dependency."""

    def __init__(
        self,
        name: str,
        settings: BreakerSettings | None = None,
        *,
        seed: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.settings = settings or BreakerSettings()
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # Breakers ride into forked serving workers attached to the
        # backend; reset the lock in children (see repro.forksafe).
        register_lock_holder(self, _reset_breaker_lock)
        self._outcomes: deque[bool] = deque(maxlen=self.settings.window)
        self._state = CLOSED
        self._opened_at = 0.0
        self._open_for = 0.0
        self._probe_successes = 0

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half-open``).

        Reading the state performs the open → half-open transition when
        the reset timeout has elapsed.
        """
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self._open_for
        ):
            self._state = HALF_OPEN
            self._probe_successes = 0
        return self._state

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._open_for = self.settings.reset_timeout_s * (
            1.0 + self.settings.jitter * self._rng.random()
        )

    # -- outcome recording -------------------------------------------------

    def record_success(self) -> None:
        """Record one successful call against the guarded dependency."""
        with self._lock:
            state = self._state_locked()
            self._outcomes.append(True)
            if state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.settings.half_open_probes:
                    self._state = CLOSED
                    self._outcomes.clear()
                    self._probe_successes = 0

    def record_failure(self) -> None:
        """Record one failed call; may trip or re-open the circuit."""
        with self._lock:
            state = self._state_locked()
            self._outcomes.append(False)
            if state == HALF_OPEN:
                # One failure during the trial re-opens immediately.
                self._trip_locked()
                return
            if state == OPEN:
                return
            if len(self._outcomes) < self.settings.min_calls:
                return
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.settings.failure_threshold:
                self._trip_locked()

    def snapshot(self) -> dict[str, object]:
        """State + window counters, for ``/metrics`` and ``/readyz``."""
        with self._lock:
            state = self._state_locked()
            outcomes = list(self._outcomes)
        return {
            "name": self.name,
            "state": state,
            "window": len(outcomes),
            "failures": sum(1 for ok in outcomes if not ok),
        }
