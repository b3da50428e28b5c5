"""Deterministic seeded fault injection for chaos tests and benchmarks.

Production code paths are instrumented with *named injection points* —
one cheap ``faults.fire("storage.query")`` call at each seam where the
real world can fail. With no plan installed (the default, and always in
production) ``fire`` is a module-global ``None`` check and costs
nothing. Tests install a :class:`FaultPlan` that maps points to fault
specs:

    plan = FaultPlan(seed=7).inject(
        "storage.query", kind="error", rate=0.1,
        error=sqlite3.OperationalError("injected: database is locked"),
    )
    with faults.injected(plan):
        ...   # ~10% of storage calls now raise, on a reproducible schedule

Determinism is the point: every injection point owns a ``random.Random``
stream seeded from ``(plan seed, point name)`` and a call counter, so the
same seed against the same call sequence reproduces the same schedule —
bit-for-bit, across runs and across the fork into serving workers (the
installed plan is inherited by forked children, which is how prefork
chaos tests crash a worker deterministically).

Injection points:

=================== =====================================================
``storage.query``    every guarded SQL call in ``SQLiteBackend``
``artifact.load``    ``FullTextIndex.load`` artifact open/validate
``worker.start``     ``PreforkServer`` worker boot, before the engine builds
``emission.compute`` ``FullAccessWrapper`` emission scoring entry
``steiner.expand``   the top-k Steiner enumeration loop (every 64 pops)
``journal.append``   ``MutationJournal.append``, before the record is written
``fs.fsync``         before every durability fsync (journal append, artifact
                     temp file) — the "power loss before the sync" window
``artifact.replace`` ``FullTextIndex.save``, before the atomic ``os.replace``
                     publishes the new artifact generation
``journal.replay``   recovery replay, before each journaled record re-applies
=================== =====================================================

Fault kinds: ``latency`` (sleep ``delay_s``), ``error`` (raise), ``crash``
(``os._exit`` — forked workers only), ``flake`` (raise for the first
``recover_after`` triggered calls, then pass forever — a transient
fault that heals on its own).
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import FaultInjectedError, QuestError
from repro.forksafe import register_lock_holder


def _reset_plan_lock(plan: "FaultPlan") -> None:
    plan._lock = threading.Lock()

__all__ = [
    "POINTS",
    "FaultPlan",
    "FaultSpec",
    "active",
    "clear",
    "fire",
    "injected",
    "install",
]

#: The registry of known injection points (unknown names are rejected so a
#: typo in a test fails loudly instead of silently injecting nothing).
POINTS = (
    "storage.query",
    "artifact.load",
    "worker.start",
    "emission.compute",
    "steiner.expand",
    "journal.append",
    "fs.fsync",
    "artifact.replace",
    "journal.replay",
)

_KINDS = ("latency", "error", "crash", "flake")


@dataclass
class FaultSpec:
    """What to do when one injection point fires.

    Attributes:
        kind: ``latency`` / ``error`` / ``crash`` / ``flake``.
        rate: probability a call triggers (drawn from the point's seeded
            stream; 1.0 = every call).
        after: skip the first *after* calls entirely (lets a test prime a
            cache or finish boot before the chaos starts).
        times: stop triggering after this many triggered calls
            (``None`` = unlimited).
        delay_s: sleep applied by ``latency`` faults (also honoured
            before ``error``/``flake`` raises when nonzero, for
            slow-failure schedules).
        error: exception *instance* or *class* raised by ``error`` and
            ``flake`` faults; defaults to :class:`FaultInjectedError`.
        recover_after: ``flake`` only — triggered calls raise until this
            many have failed, then every later call passes (the
            dependency "recovered").
        exit_code: ``crash`` only — the ``os._exit`` status.
    """

    kind: str
    rate: float = 1.0
    after: int = 0
    times: int | None = None
    delay_s: float = 0.0
    error: BaseException | type[BaseException] | None = None
    recover_after: int = 0
    exit_code: int = 13

    # Mutable per-plan counters (not part of the spec's identity).
    calls: int = field(default=0, compare=False)
    triggered: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise QuestError(f"unknown fault kind {self.kind!r} (use {_KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise QuestError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind == "flake" and self.recover_after <= 0:
            raise QuestError("flake faults need recover_after > 0")

    def _raise(self, point: str) -> None:
        error = self.error
        if error is None:
            raise FaultInjectedError(point)
        if isinstance(error, type):
            raise error(f"injected fault at {point!r}")
        raise error


class FaultPlan:
    """A seeded, reproducible schedule of faults across injection points.

    Thread-safe: the per-point counters and RNG streams are advanced
    under one lock, so concurrent searches observe one global call order
    (tests that need *exact* cross-thread schedules use ``rate=1.0``
    specs, which do not depend on interleaving).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        # Installed plans are inherited across the prefork fork; a child
        # must not start life with this lock held (see repro.forksafe).
        register_lock_holder(self, _reset_plan_lock)
        self._specs: dict[str, FaultSpec] = {}
        self._streams: dict[str, random.Random] = {}
        self._decisions: dict[str, list[str]] = {}

    def inject(self, point: str, **spec: object) -> "FaultPlan":
        """Attach a :class:`FaultSpec` to *point*; chainable."""
        if point not in POINTS:
            raise QuestError(f"unknown injection point {point!r} (use {POINTS})")
        self._specs[point] = FaultSpec(**spec)  # type: ignore[arg-type]
        # One independent stream per point, derived stably from the seed.
        self._streams[point] = random.Random(f"{self.seed}:{point}")
        self._decisions[point] = []
        return self

    def decisions(self, point: str) -> tuple[str, ...]:
        """The recorded outcome per call at *point* (determinism checks)."""
        with self._lock:
            return tuple(self._decisions.get(point, ()))

    def _decide(self, point: str) -> FaultSpec | None:
        """Advance *point*'s schedule by one call; return the spec to apply."""
        spec = self._specs.get(point)
        if spec is None:
            return None
        log = self._decisions[point]
        spec.calls += 1
        if spec.calls <= spec.after:
            log.append("pass")
            return None
        if spec.times is not None and spec.triggered >= spec.times:
            log.append("pass")
            return None
        # Draw even for rate 1.0 so thinning a schedule (rate 1.0 -> 0.5)
        # only removes firings instead of reshuffling the whole stream.
        draw = self._streams[point].random()
        if draw >= spec.rate:
            log.append("pass")
            return None
        spec.triggered += 1
        if spec.kind == "flake" and spec.triggered > spec.recover_after:
            log.append("recovered")
            return None
        log.append(spec.kind)
        return spec

    def fire(self, point: str) -> None:
        """Apply *point*'s schedule to the current call (may sleep/raise).

        Unknown point names are a hard error: a typo'd instrumentation
        site would otherwise silently inject nothing and the chaos
        suite would quietly stop covering that seam. (The check runs
        only when a plan is installed, so the production fast path —
        no plan, module-level ``fire`` returns immediately — never
        pays for it; the static ``fault-points`` questlint rule covers
        the uninstalled case.)
        """
        if point not in POINTS:
            raise QuestError(
                f"unknown injection point {point!r} fired (use {POINTS})"
            )
        with self._lock:
            spec = self._decide(point)
        if spec is None:
            return
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        if spec.kind == "latency":
            return
        if spec.kind == "crash":
            os._exit(spec.exit_code)
        spec._raise(point)


#: The installed plan (None = injection disabled, the production state).
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Install *plan* process-wide (inherited by forked children)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Remove the installed plan."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultPlan | None:
    """The installed plan, if any."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def fire(point: str) -> None:
    """Hit injection point *point*; no-op unless a plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(point)
