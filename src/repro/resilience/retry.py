"""Bounded jittered-exponential retry for transient faults.

Used for the failures that resolve themselves if asked again a moment
later: ``sqlite3.OperationalError: database is locked`` under WAL writer
contention, and index-artifact load races where a sibling process is
mid-rewrite. Delays grow exponentially with equal jitter (half fixed,
half seeded-random) so concurrent retriers decorrelate instead of
thundering back in lockstep.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

from repro.errors import QuestError

__all__ = ["RetryPolicy"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable retry schedule: ``attempts`` tries, growing jittered gaps.

    Attributes:
        attempts: total tries (1 = no retry).
        base_delay_s: delay before the first retry.
        max_delay_s: cap on any single delay.
        multiplier: exponential growth factor between retries.
        seed: seeds the jitter RNG for reproducible schedules in tests;
            ``None`` uses nondeterministic jitter.
    """

    attempts: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25
    multiplier: float = 2.0
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.attempts <= 0:
            raise QuestError(f"attempts must be positive, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise QuestError(
                "delays must satisfy 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )
        if self.multiplier < 1.0:
            raise QuestError(f"multiplier must be >= 1, got {self.multiplier}")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delays(self) -> Iterator[float]:
        """The ``attempts - 1`` inter-try delays (equal jitter)."""
        raw = self.base_delay_s
        for _ in range(self.attempts - 1):
            capped = min(self.max_delay_s, raw)
            yield capped / 2.0 + self._rng.uniform(0.0, capped / 2.0)
            raw *= self.multiplier

    def call(
        self,
        fn: Callable[[], T],
        *,
        retry_on: tuple[type[BaseException], ...],
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[BaseException, int], None] | None = None,
    ) -> T:
        """Run *fn*, retrying on *retry_on* up to the attempt budget.

        The final failure propagates unwrapped so callers keep their own
        error-mapping (``ExecutionError`` wrapping, failure-window recording).
        *on_retry* is invoked with (exception, attempt index) before each
        sleep — the storage tier uses it to feed its failure window.
        """
        schedule = self.delays()
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                attempt += 1
                delay = next(schedule, None)
                if delay is None:
                    raise
                if on_retry is not None:
                    on_retry(exc, attempt)
                if delay > 0:
                    sleep(delay)
