"""``QuestService``: a thread-safe serving front door over one engine.

The engines themselves are now safe for concurrent callers (searches
return their own :class:`~repro.pipeline.context.SearchContext`; the
shared caches attribute hits exactly), but *safe* is not *production*:
an interactive keyword-search service — the deployment scenario QUEST
assumes — also needs the traffic-shaping tiers this class layers on
top of a :class:`~repro.core.engine.Quest` (or
:class:`~repro.core.multisource.MultiSourceQuest`):

1. **Ranking cache** — one LRU of completed rankings keyed on
   ``(keywords, k)``; each entry carries the engine version it was
   computed at. A hit is fresh only at the current version, within
   ``result_ttl_s`` and after the last :meth:`QuestService.invalidate`,
   so any result-affecting mutation (which moves the engine version)
   makes the entry unservable as fresh.
2. **Request coalescing** — identical in-flight ``(keywords, k)``
   requests share one pipeline run through a singleflight map: a burst
   of a hot query costs one computation.
3. **Admission control** — at most ``max_concurrent`` searches execute,
   at most ``max_queue`` wait; everything beyond fails fast with
   :class:`~repro.errors.ServiceOverloadedError`.
4. **Metrics** — counters, windowed QPS and p50/p95 latency via
   :meth:`QuestService.metrics`.

When storage fails, the same entry answers as a revision-stale ranking
for up to ``stale_ttl_s`` (see :meth:`QuestService.search`). Every tier
is always on;
:class:`ServiceSettings` sizes them but switches none of them off.

Requests are tokenised before keying, so ``"capital  Ruritania"`` and
``"capital ruritania"`` coalesce. Answers are rank-identical to calling
the engine directly — every tier changes *when* and *how often* the
engine runs, never what it returns.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    QuestError,
    ServiceOverloadedError,
)
from repro.cache import LRUCache
from repro.resilience import Deadline, FailureWindow, process_health
from repro.semantics.tokenize import tokenize_query
from repro.service.admission import AdmissionController
from repro.service.metrics import DEFAULT_WINDOW, MetricsSnapshot, ServiceMetrics
from repro.service.singleflight import SingleFlight

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.pipeline.context import SearchTrace

__all__ = ["QuestService", "ServiceResponse", "ServiceSettings"]

#: Fallback answer size for engines without a ``settings.k`` (the
#: multi-source combiner), matching its own ``search`` default.
DEFAULT_K = 10


@dataclass(frozen=True)
class ServiceSettings:
    """Serving-tier knobs (the engine's own knobs live on the engine).

    Attributes:
        k: default answers per query; ``None`` defers to the engine
            (``Quest.settings.k``, or 10 for multi-source).
        max_concurrent: searches executing at once.
        max_queue: admitted searches allowed to wait for a slot; the
            next request past ``max_concurrent + max_queue`` is shed.
        result_ttl_s: seconds a cached ranking stays servable as fresh.
        result_cache_size: ``(keywords, k)`` rankings retained (LRU
            beyond that).
        metrics_window: completed requests kept for quantiles/QPS.
        stale_ttl_s: seconds a ranking stays eligible for stale serving
            (see :meth:`QuestService.search`).
    """

    k: int | None = None
    max_concurrent: int = 8
    max_queue: int = 32
    result_ttl_s: float = 30.0
    result_cache_size: int = 256
    metrics_window: int = DEFAULT_WINDOW
    stale_ttl_s: float = 300.0

    def __post_init__(self) -> None:
        if self.k is not None and self.k <= 0:
            raise QuestError(f"k must be positive, got {self.k}")
        if self.max_concurrent <= 0:
            raise QuestError(
                f"max_concurrent must be positive, got {self.max_concurrent}"
            )
        if self.max_queue < 0:
            raise QuestError(
                f"max_queue must be non-negative, got {self.max_queue}"
            )
        if self.result_ttl_s <= 0:
            raise QuestError(
                f"result_ttl_s must be positive, got {self.result_ttl_s}"
            )
        if self.result_cache_size <= 0:
            raise QuestError(
                f"result_cache_size must be positive, got {self.result_cache_size}"
            )
        if self.metrics_window <= 0:
            raise QuestError(
                f"metrics_window must be positive, got {self.metrics_window}"
            )
        if self.stale_ttl_s <= 0:
            raise QuestError(
                f"stale_ttl_s must be positive, got {self.stale_ttl_s}"
            )


@dataclass(frozen=True)
class ServiceResponse:
    """One answered search and where the answer came from.

    Attributes:
        query: the raw request text.
        keywords: the tokenised request (the coalescing/cache key).
        k: answers requested.
        explanations: the ranked answers (``(source, Explanation)``
            pairs when the engine is multi-source).
        trace: the exact per-run diagnostics of the pipeline run that
            produced this ranking — shared (by design) among the
            coalesced/cached responses that ranking also answered;
            ``None`` for multi-source engines, which have no single
            trace.
        source: ``"engine"`` (this request ran the pipeline),
            ``"coalesced"`` (joined another request's run),
            ``"cache"`` (a fresh ranking-cache hit) or ``"stale"`` (a
            ranking-cache entry from any revision, served because the
            engine's storage was failing).
        latency_s: wall time this request spent in the service.
    """

    query: str
    keywords: tuple[str, ...]
    k: int
    explanations: tuple[Any, ...]
    trace: "SearchTrace | None"
    source: str
    latency_s: float

    @property
    def cached(self) -> bool:
        return self.source == "cache"

    @property
    def coalesced(self) -> bool:
        return self.source == "coalesced"

    @property
    def stale(self) -> bool:
        return self.source == "stale"

    @property
    def stale_revision(self) -> Any:
        """The engine revision a stale answer was computed at.

        ``None`` on fresh responses, and on stale ones whose engine is
        multi-source (no single trace to carry the stamp).
        """
        return self.trace.stale_revision if self.trace is not None else None

    @property
    def degraded(self) -> bool:
        """Served on a degraded path: stale fallback, or a pipeline run
        whose deadline expired mid-flight (best-so-far answers)."""
        return self.stale or (self.trace is not None and self.trace.degraded)


@dataclass(frozen=True)
class _Computed:
    """What one engine run produced (the cached/shared unit)."""

    explanations: tuple[Any, ...]
    trace: "SearchTrace | None"


@dataclass(frozen=True)
class _Entry:
    """One ranking-cache entry: a ranking and what it was stored under."""

    computed: _Computed
    #: The engine version the request that computed it started at.
    version: Any
    #: Clock reading at store time (both TTLs count from here).
    stored_at: float
    #: The service's invalidation epoch at store time.
    epoch: object


class QuestService:
    """Concurrent, latency-bounded query answering over one engine.

    Args:
        engine: a :class:`Quest` or :class:`MultiSourceQuest` (anything
            with a ``search``-shaped surface; engines exposing
            ``search_context`` additionally get per-response traces,
            and a ``version`` property keys cache freshness).
        settings: serving-tier knobs; defaults to
            :class:`ServiceSettings`.
        clock: monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        engine: Any,
        settings: ServiceSettings | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.settings = settings if settings is not None else ServiceSettings()
        self._admission = AdmissionController(
            self.settings.max_concurrent, self.settings.max_queue
        )
        self._flights = SingleFlight()
        #: The last good ranking per (keywords, k). The engine version
        #: rides in the entry, not the key: a fresh hit must match it,
        #: while the stale fallback answers across revisions.
        self._results = LRUCache(self.settings.result_cache_size, label="ranking")
        #: Replaced by invalidate(): entries stored under an older epoch
        #: stop being fresh. A new object per call, compared by identity,
        #: so concurrent invalidate() calls need no lock.
        self._epoch = object()
        self._metrics = ServiceMetrics(
            window=self.settings.metrics_window, clock=clock
        )
        self._clock = clock
        #: When the stale tier last had to answer (degradation signal).
        self._last_stale_at: float | None = None
        search_context = getattr(engine, "search_context", None)
        self._engine_takes_deadline = search_context is not None and (
            "deadline" in inspect.signature(search_context).parameters
        )

    # -- the front door ------------------------------------------------------

    def search(
        self, query: str, k: int | None = None, deadline_ms: float | None = None
    ) -> ServiceResponse:
        """Answer one query through the serving tiers.

        Thread-safe; any number of callers may be in flight. Raises
        :class:`ServiceOverloadedError` when admission control sheds the
        request (also for followers whose leader was shed — they were
        promised that computation), and propagates engine failures
        (e.g. :class:`QuestError` for an unusable query) unchanged.

        *deadline_ms* (or, when absent, the engine's
        ``settings.default_deadline_ms``) bounds the request end to end —
        queueing time included. On expiry the pipeline degrades to
        best-so-far answers (``response.degraded``) or, with nothing
        salvageable, raises :class:`DeadlineExceededError` (HTTP 504).
        A storage failure (:class:`ExecutionError`) falls back to the
        ranking cache's entry for the query, from any engine revision,
        if it is younger than ``stale_ttl_s``. Such a response carries
        ``source="stale"``
        (the HTTP tier adds a ``Warning`` header) and counts in
        ``metrics().stale_served``; with no stale entry the error
        propagates.
        """
        start = self._clock()
        self._metrics.record_request()
        try:
            if k is not None and k <= 0:
                raise QuestError(f"k must be positive, got {k}")
            deadline = Deadline.from_ms(
                deadline_ms
                if deadline_ms is not None
                else self._default_deadline_ms(),
                clock=self._clock,
            )
            keywords = self._keywords_of(query)
            k = k if k is not None else self._default_k()
            version = self._engine_version()

            entry = self._cached(keywords, k)
            if (
                entry is not None
                and entry.version == version
                and entry.epoch is self._epoch
                and entry.stored_at + self.settings.result_ttl_s > start
            ):
                return self._respond(
                    query, keywords, k, entry.computed, "cache", start
                )

            def compute() -> _Computed:
                try:
                    with self._admission.admit():
                        if deadline is not None and deadline.expired():
                            # The budget died in the queue: fail before
                            # burning an execution slot on a dead request.
                            raise DeadlineExceededError(deadline.budget_ms)
                        computed = self._run_engine(query, keywords, k, deadline)
                except ServiceOverloadedError:
                    # Count the shed where admission refused it — once.
                    # Followers re-raising the leader's error must not
                    # inflate the counter (they never entered admission).
                    self._metrics.record_shed()
                    raise
                # Publish before the flight key is released (we are still
                # the leader here): a same-key request arriving between
                # flight release and a later put would find neither the
                # flight nor the cache and redundantly re-run the engine.
                # Degraded (deadline-truncated) rankings are never
                # published — a later unbounded request must not inherit
                # a partial answer.
                degraded = computed.trace is not None and computed.trace.degraded
                if not degraded:
                    self._results.put(  # questlint: disable=cache-revision  # the version rides in the entry and gates fresh hits; the stale fallback wants the entry across revisions
                        (keywords, k),
                        _Entry(computed, version, self._clock(), self._epoch),
                    )
                return computed

            try:
                computed, shared = self._flights.do((keywords, k, version), compute)
            except ExecutionError:
                now = self._clock()
                entry = self._cached(keywords, k)
                if entry is None or entry.stored_at + self.settings.stale_ttl_s <= now:
                    raise
                fallback, revision = entry.computed, entry.version
                if fallback.trace is not None:
                    # Stamp a *copy*: the cache entry shares this
                    # _Computed, and a stale marker must never leak into
                    # fresh responses for the same key.
                    fallback = _Computed(
                        fallback.explanations,
                        replace(fallback.trace, stale_revision=revision),
                    )
                self._last_stale_at = now
                self._metrics.record_stale_served(revision)
                return self._respond(
                    query, keywords, k, fallback, "stale", start
                )
            source = "coalesced" if shared else "engine"
            return self._respond(query, keywords, k, computed, source, start)
        except ServiceOverloadedError:
            # Already counted at the admission point (exactly once per
            # refusal, whether one caller or a coalesced burst saw it).
            raise
        except DeadlineExceededError:
            # Counted separately from errors: the service behaved as
            # asked — the caller's budget was simply too small.
            self._metrics.record_deadline_expired()
            raise
        except BaseException:
            self._metrics.record_error()
            raise

    def metrics(self) -> MetricsSnapshot:
        """A point-in-time snapshot of the serving-tier metrics."""
        return self._metrics.snapshot(
            in_flight=self._admission.admitted,
            coalesce_waiting=self._flights.waiting(),
        )

    def degradation(self) -> dict[str, Any]:
        """The service's current degradation state, for health endpoints.

        Aggregates three signals: process-level health marks (e.g. a
        worker that rebuilt its index in-process after finding the
        shared artifact unusable), the read-failure window of every
        storage backend behind the engine (each source's, for a
        multi-source engine), and recent stale serving. Returns
        ``{"degraded": bool, "reasons": [str, ...]}`` — an empty reason
        list means fully healthy.
        """
        reasons = [
            f"{name}: {detail}" if detail else name
            for name, detail in sorted(process_health.reasons().items())
        ]
        for window in self._read_health_windows():
            counts = window.counts()
            if counts.failing:
                reasons.append(
                    f"storage {window.name!r} failing ({counts.failed} of "
                    f"{counts.recorded} recent reads)"
                )
        last = self._last_stale_at
        if last is not None and self._clock() - last < self.settings.stale_ttl_s:
            reasons.append("recently served revision-stale results")
        return {"degraded": bool(reasons), "reasons": reasons}

    def invalidate(self) -> None:
        """Stop serving every cached ranking as fresh (mutations do this
        implicitly via the engine version; this is the operator's big
        hammer). The entries stay eligible for the stale fallback."""
        self._epoch = object()

    # -- internals -----------------------------------------------------------

    def _default_k(self) -> int:
        if self.settings.k is not None:
            return self.settings.k
        engine_settings = getattr(self.engine, "settings", None)
        return getattr(engine_settings, "k", None) or DEFAULT_K

    def _keywords_of(self, query: str) -> tuple[str, ...]:
        """Tokenise through the engine's own helper when it has one, so
        the coalescing/cache key always matches the keywords the engine
        actually searches."""
        keywords_of = getattr(self.engine, "keywords_of", None)
        if keywords_of is not None:
            return tuple(keywords_of(query))
        keywords = tuple(tokenize_query(query))
        if not keywords:
            raise QuestError(f"query contains no usable keywords: {query!r}")
        return keywords

    def _engine_version(self) -> Any:
        return getattr(self.engine, "version", 0)

    def _cached(self, keywords: tuple[str, ...], k: int) -> "_Entry | None":
        return self._results.get((keywords, k))  # questlint: disable=cache-revision  # see the put in search(): the entry carries the version

    def _read_health_windows(self) -> list[FailureWindow]:
        """The read-failure windows of the storage backends behind the
        engine: its own, or every source engine's when multi-source."""
        sources = getattr(self.engine, "engines", None)
        engines = sources.values() if sources is not None else (self.engine,)
        windows = (
            getattr(
                getattr(getattr(engine, "wrapper", None), "backend", None),
                "read_health",
                None,
            )
            for engine in engines
        )
        # Sources sharing one backend report it once.
        return list(dict.fromkeys(w for w in windows if w is not None))

    def _default_deadline_ms(self) -> float | None:
        engine_settings = getattr(self.engine, "settings", None)
        return getattr(engine_settings, "default_deadline_ms", None)

    def _run_engine(
        self,
        query: str,
        keywords: tuple[str, ...],
        k: int,
        deadline: "Deadline | None" = None,
    ) -> _Computed:
        search_context = getattr(self.engine, "search_context", None)
        if search_context is not None:
            if deadline is not None and self._engine_takes_deadline:
                context = search_context(
                    keywords=list(keywords), k=k, deadline=deadline
                )
            else:
                context = search_context(keywords=list(keywords), k=k)
            return _Computed(tuple(context.explanations), context.trace)
        # Multi-source (or any foreign) engine: no per-run trace surface.
        return _Computed(tuple(self.engine.search(query, k)), None)

    def _respond(
        self,
        query: str,
        keywords: tuple[str, ...],
        k: int,
        computed: _Computed,
        source: str,
        start: float,
    ) -> ServiceResponse:
        latency = self._clock() - start
        self._metrics.record_completion(
            latency,
            executed=source == "engine",
            coalesced=source == "coalesced",
            cache_hit=source == "cache",
        )
        if source == "stale" or (
            computed.trace is not None and computed.trace.degraded
        ):
            self._metrics.record_degraded()
        return ServiceResponse(
            query=query,
            keywords=keywords,
            k=k,
            explanations=computed.explanations,
            trace=computed.trace,
            source=source,
            latency_s=latency,
        )

    def __repr__(self) -> str:
        return (
            f"QuestService({self.engine!r}, "
            f"max_concurrent={self.settings.max_concurrent}, "
            f"max_queue={self.settings.max_queue})"
        )
