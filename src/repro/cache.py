"""Thread-safe LRU caching with hit/miss accounting.

A leaf module with no intra-package dependencies, so the low-level
consumers (the source wrappers, the schema graph) can use it without
depending on the orchestration layer. The staged search pipeline
amortises work across queries through three revision-keyed instances of
this cache: keyword emission vectors on the source wrapper, top-k
Steiner results on the schema graph, and explanation result counts on
the storage backend. All three sit on hot paths that may be exercised
concurrently (the multi-source executor fans per-source searches out
over threads), so every operation takes an internal lock.

The two data-derived caches (emissions and counts) share one
invalidation mechanism, :meth:`LRUCache.sync`: each read folds the
revision stamp it observed into its key, and the cache drops its
entries when a stamp moves forward, so entries of older revisions never
linger once writes have moved on.

Counters are cumulative over the cache's lifetime. Callers that want
*exact* per-operation deltas install a :class:`CacheRecorder` for the
duration of the operation (:func:`recording`): every ``get`` on any
cache additionally credits the hit or miss to the recorder active in the
calling thread's context, keyed by the cache's *label*. Because the
recorder travels in a :mod:`contextvars` context variable, two threads
searching through one shared cache each see only their own lookups —
this is what makes :class:`~repro.pipeline.context.SearchTrace` cache
deltas exact under concurrency, where before/after snapshots of the
global counters would interleave.
"""

from __future__ import annotations

import contextvars
import operator
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.forksafe import register_lock_holder

__all__ = ["CacheRecorder", "CacheStats", "LRUCache", "recording"]

_MISSING = object()


def _reset_cache_lock(cache: "LRUCache") -> None:
    cache._lock = threading.Lock()

#: The recorder lookups are credited to, if any. Context-local: a
#: pipeline run installs its recorder around its stages only, and worker
#: threads (which start from a fresh context) never inherit another
#: thread's recorder.
_RECORDER: contextvars.ContextVar["CacheRecorder | None"] = contextvars.ContextVar(
    "quest_cache_recorder", default=None
)


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls counted."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas between *earlier* and this snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            maxsize=self.maxsize,
        )

    def __str__(self) -> str:
        return f"hits={self.hits} misses={self.misses} size={self.size}"


class CacheRecorder:
    """Accumulates cache lookups for one logical operation, per label.

    Installed via :func:`recording`; every :meth:`LRUCache.get` executed
    while the recorder is active credits its hit or miss here as well as
    to the cache's cumulative counters. A recorder belongs to the one
    operation (one pipeline run) that installed it and is only ever
    touched from that operation's thread, so it needs no lock.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, list[int]] = {}

    def record(self, label: str, hit: bool) -> None:
        """Credit one lookup on the cache labelled *label*."""
        counts = self._counts.get(label)
        if counts is None:
            counts = self._counts[label] = [0, 0]
        counts[0 if hit else 1] += 1

    def stats(self, label: str) -> CacheStats:
        """Recorded hits/misses for *label* (zeros when never touched)."""
        counts = self._counts.get(label)
        if counts is None:
            return CacheStats()
        return CacheStats(hits=counts[0], misses=counts[1])

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{label}: hits={c[0]} misses={c[1]}"
            for label, c in sorted(self._counts.items())
        )
        return f"CacheRecorder({inner})"


@contextmanager
def recording(recorder: CacheRecorder) -> Iterator[CacheRecorder]:
    """Install *recorder* as this context's lookup recorder.

    Nested recordings shadow the outer recorder for their extent (the
    outer one resumes afterwards); lookups on threads other than the
    installing one are unaffected.
    """
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts or
    refreshes. All operations are O(1) and thread-safe. *label* names the
    cache to an active :class:`CacheRecorder` ("emission", "steiner", ...)
    so per-operation attribution can tell co-resident caches apart.
    """

    def __init__(self, maxsize: int = 1024, label: str = "cache") -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.label = label
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        #: The newest revision stamp :meth:`sync` has seen (None = none).
        self._stamp: tuple[int, ...] | None = None
        # PreforkServer forks while sibling threads may sit inside this
        # lock; forked children get a fresh one (see repro.forksafe).
        register_lock_holder(self, _reset_cache_lock)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for *key*, counting a hit or a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
            else:
                self._data.move_to_end(key)
                self._hits += 1
        recorder = _RECORDER.get()
        if recorder is not None:
            recorder.record(self.label, value is not _MISSING)
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) *key*, evicting the oldest entry if full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def sync(self, stamp: tuple[int, ...]) -> tuple[int, ...]:
        """Adopt the revision *stamp* a read observed; returns it.

        *stamp* is a tuple of monotonic counters the cached values are
        derived from (a data version, a lexicon version). When any of
        them moves forward the cache is cleared, so write-heavy traffic
        keeps no dead entries. The caller folds the returned stamp into
        the keys of the read that observed it: a value computed from
        pre-write data but *stored* after a concurrent write (and after
        another thread's sync cleared the cache) lands under the old
        stamp's key, where no reader that starts after the write can
        find it, so the clear-then-stale-put race cannot poison the
        cache. Only forward moves are adopted (component-wise maximum):
        a thread resuming with a stale read must not move a counter
        backwards and trigger clear ping-pong.
        """
        with self._lock:
            current = self._stamp
            if stamp != current and (
                current is None or any(map(operator.gt, stamp, current))
            ):
                self._data.clear()
                self._stamp = stamp if current is None else tuple(map(max, stamp, current))
        return stamp

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are preserved)."""
        with self._lock:
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency or counters."""
        with self._lock:
            return key in self._data

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:
        return f"LRUCache({self.stats}, maxsize={self.maxsize})"
