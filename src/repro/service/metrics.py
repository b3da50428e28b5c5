"""Serving-tier metrics: counters, latency quantiles, windowed QPS.

Cheap enough for the hot path (one lock, a few integer bumps and a
bounded deque append per request) while answering the questions an
operator actually asks: how much traffic, how slow at the median and the
tail, and how much work the coalescing/caching/shedding tiers are
absorbing. ``snapshot()`` returns an immutable point-in-time view.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.forksafe import register_lock_holder

__all__ = ["MetricsSnapshot", "ServiceMetrics"]


def _reset_metrics_lock(metrics: "ServiceMetrics") -> None:
    metrics._lock = threading.Lock()

#: Completed-request timestamps/latencies retained for quantiles and QPS.
DEFAULT_WINDOW = 1024
#: Seconds of history the QPS rate is computed over.
QPS_WINDOW_S = 60.0


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of pre-sorted values (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class MetricsSnapshot:
    """A consistent point-in-time view of the service counters.

    Attributes:
        requests: searches accepted by the front door (shed included).
        completed: searches answered (any tier, errors excluded).
        executed: searches that ran the engine (cache misses leading a
            flight) — ``completed - executed`` answers came for free.
        coalesced: followers served by another caller's in-flight search.
        cache_hits / cache_misses: TTL result-cache outcomes.
        shed: admission-control refusals — one per refused computation
            (coalesced followers of a shed leader share its one count).
        errors: searches that raised (engine failures, not sheds).
        deadline_expired: searches aborted by their time budget with
            nothing salvageable (the HTTP tier's 504s).
        degraded: searches answered on a degraded path — best-so-far
            results after deadline expiry (``trace.degraded``).
        stale_served: searches answered from the revision-stale fallback
            cache because the engine's storage was failing.
        stale_last_revision: the engine revision of the most recent
            stale-served ranking — tells an operator how old the data
            behind the last fallback answer was (``None`` until a stale
            serve happens).
        in_flight: requests currently admitted (executing or queued).
        coalesce_waiting: followers currently parked behind an in-flight
            leader — hot-key backlog that never enters the admission
            house (its cost is the parked caller thread, not engine
            work).
        qps: completed requests per second over the last minute.
        p50_latency_s / p95_latency_s: latency quantiles over the
            retained window (all serving tiers — cached answers count).
    """

    requests: int = 0
    completed: int = 0
    executed: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shed: int = 0
    errors: int = 0
    deadline_expired: int = 0
    degraded: int = 0
    stale_served: int = 0
    stale_last_revision: Any = None
    in_flight: int = 0
    coalesce_waiting: int = 0
    qps: float = 0.0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0

    def summary(self) -> str:
        """A one-line operator digest."""
        return (
            f"requests={self.requests} qps={self.qps:.1f} "
            f"p50={self.p50_latency_s * 1e3:.1f}ms "
            f"p95={self.p95_latency_s * 1e3:.1f}ms "
            f"coalesced={self.coalesced} cache_hits={self.cache_hits} "
            f"shed={self.shed} errors={self.errors}"
        )


class ServiceMetrics:
    """Thread-safe accumulator behind :meth:`QuestService.metrics`."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        register_lock_holder(self, _reset_metrics_lock)
        self._clock = clock
        self._requests = 0
        self._completed = 0
        self._executed = 0
        self._coalesced = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._shed = 0
        self._errors = 0
        self._deadline_expired = 0
        self._degraded = 0
        self._stale_served = 0
        self._stale_last_revision: Any = None
        #: (completion timestamp, latency seconds), bounded.
        self._latencies: deque[tuple[float, float]] = deque(maxlen=window)

    def record_request(self) -> None:
        with self._lock:
            self._requests += 1

    def record_shed(self) -> None:
        with self._lock:
            self._shed += 1

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1

    def record_deadline_expired(self) -> None:
        with self._lock:
            self._deadline_expired += 1

    def record_degraded(self) -> None:
        with self._lock:
            self._degraded += 1

    def record_stale_served(self, revision: Any = None) -> None:
        """Count a stale serve, remembering the revision it came from."""
        with self._lock:
            self._stale_served += 1
            self._stale_last_revision = revision

    def record_completion(
        self,
        latency_s: float,
        *,
        executed: bool = False,
        coalesced: bool = False,
        cache_hit: bool = False,
    ) -> None:
        """Record one answered search and which tier answered it."""
        with self._lock:
            self._completed += 1
            if executed:
                self._executed += 1
            if coalesced:
                self._coalesced += 1
            if cache_hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            self._latencies.append((self._clock(), latency_s))

    def snapshot(
        self, in_flight: int = 0, coalesce_waiting: int = 0
    ) -> MetricsSnapshot:
        """An immutable view of everything accumulated so far."""
        with self._lock:
            now = self._clock()
            horizon = now - QPS_WINDOW_S
            recent = [ts for ts, _latency in self._latencies if ts >= horizon]
            qps = 0.0
            if recent:
                # Rate over the observed span, not the full window: ten
                # requests in the last two seconds is 5 qps even if the
                # service is only two seconds old. The one-second floor
                # keeps a snapshot taken right after a lone completion
                # from reporting a microsecond-span rate.
                span = max(now - min(recent), 1.0)
                qps = len(recent) / span
            latencies = sorted(latency for _ts, latency in self._latencies)
            return MetricsSnapshot(
                requests=self._requests,
                completed=self._completed,
                executed=self._executed,
                coalesced=self._coalesced,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                shed=self._shed,
                errors=self._errors,
                deadline_expired=self._deadline_expired,
                degraded=self._degraded,
                stale_served=self._stale_served,
                stale_last_revision=self._stale_last_revision,
                in_flight=in_flight,
                coalesce_waiting=coalesce_waiting,
                qps=qps,
                p50_latency_s=_quantile(latencies, 0.50),
                p95_latency_s=_quantile(latencies, 0.95),
            )
