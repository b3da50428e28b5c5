"""Preforked multi-worker serving: N processes, one shared artifact.

The GIL denies threads real multi-core search throughput. This module
is the library's one process-parallel tier: fork the workers **once**,
make their warm start nearly free, and let each one run its own event
loop and engine.

The accept model, in order of events:

1. The **parent** prepares shared state exactly once — generating or
   opening the database and running
   :meth:`~repro.db.fulltext.FullTextIndex.load_or_build` so the ``.npz``
   columnar artifact exists on disk — then binds one listening socket.
2. It forks N **workers**. Each worker re-attaches the artifact with
   ``mmap=True`` (a validate-and-map, not a rebuild): every worker's
   snapshot arrays are ``np.memmap`` views over the *same file*, so the
   OS page cache holds one physical copy for all N workers — warm start
   for N at the cost of one. Forked children also inherit the parent's
   Python heap copy-on-write, and the :mod:`repro.forksafe` registry
   hands every registered lock holder a fresh lock, so a worker is
   immediately safe to serve from.
3. All workers ``accept()`` on the inherited parent listener fd (the
   classic prefork model — the kernel queues connections in the single
   listen backlog and wakes workers to take them; asyncio absorbs the
   thundering-herd ``EAGAIN``). With ``reuse_port=True`` each worker
   instead binds its own ``SO_REUSEPORT`` socket and the kernel
   load-balances connections across them.
4. The parent **supervises**: a poll loop reaps dead workers and forks
   replacements (bounded by ``max_restarts``); ``stop()`` sends SIGTERM,
   which each worker turns into a graceful drain — stop accepting,
   finish in-flight requests, exit 0.

Respawns are paced, not immediate: a slot that keeps dying waits out a
jittered exponential backoff (``restart_backoff_s`` doubling up to
``restart_backoff_max_s``) before its replacement forks, so a worker
that crashes on startup burns its restart budget over seconds rather
than milliseconds — and a worker that stayed up ``healthy_interval_s``
resets both its slot's backoff and the fleet-wide budget, so one bad
deploy followed by a fix does not leave the supervisor primed to give
up on the next transient crash.

Only the parent ever writes the artifact; workers open it read-only
(``load_or_build(..., readonly=True)``), so a crashed-and-restarted
worker can never race a sibling through the file. A worker that cannot
use the artifact at all (corrupt or replaced mid-read) falls back to
building a dict-layout index in-process — slower to start, but
rank-identical — and marks itself degraded in
:data:`~repro.resilience.health.process_health`.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import faults
from repro.errors import ServiceError
from repro.forksafe import register_lock_holder
from repro.resilience import process_health
from repro.service.http import HttpServerSettings, QuestHttpServer
from repro.service.quota import TenantQuotas
from repro.service.service import QuestService, ServiceSettings

__all__ = [
    "PreforkServer",
    "PreforkSettings",
    "shared_artifact_engine",
]

#: Seconds between supervisor liveness polls of the worker set.
_SUPERVISE_POLL_S = 0.05


@dataclass(frozen=True)
class PreforkSettings:
    """Process-tier knobs (network knobs live on the HTTP server).

    Attributes:
        workers: serving processes to fork.
        host: interface the listener binds.
        port: TCP port (0 = ephemeral; read back via ``port``).
        reuse_port: ``SO_REUSEPORT`` per-worker listeners instead of one
            inherited parent listener fd.
        backlog: listen queue depth of the shared listener.
        drain_timeout_s: seconds a SIGTERM'd worker lets in-flight
            requests finish before exiting anyway.
        stop_timeout_s: seconds the parent waits for SIGTERM'd workers
            before escalating to SIGKILL.
        max_restarts: worker deaths the supervisor will absorb (fork a
            replacement) before declaring the deployment failed.
        restart_backoff_s: base respawn delay for a slot's first crash;
            doubles per consecutive crash of the same slot.
        restart_backoff_max_s: respawn delay ceiling per slot.
        healthy_interval_s: a worker that lived this long before dying
            resets its slot's backoff *and* the fleet-wide restart
            budget — only crash *storms* should exhaust ``max_restarts``.
        backoff_seed: seed for the respawn jitter (``None`` = entropy);
            fixed in tests so restart schedules replay exactly.
        artifact_poll_s: seconds between worker checks for a republished
            index artifact (engines exposing ``artifact_reload`` — see
            :func:`shared_artifact_engine`). ``0`` disables polling;
            workers then serve their attached generation for life.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    reuse_port: bool = False
    backlog: int = 128
    drain_timeout_s: float = 10.0
    stop_timeout_s: float = 15.0
    max_restarts: int = 8
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    healthy_interval_s: float = 30.0
    backoff_seed: int | None = None
    artifact_poll_s: float = 0.0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ServiceError(f"workers must be positive, got {self.workers}")
        if self.max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if self.restart_backoff_s <= 0:
            raise ServiceError(
                f"restart_backoff_s must be positive, got {self.restart_backoff_s}"
            )
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ServiceError(
                "restart_backoff_max_s must be >= restart_backoff_s, got "
                f"{self.restart_backoff_max_s} < {self.restart_backoff_s}"
            )
        if self.healthy_interval_s <= 0:
            raise ServiceError(
                f"healthy_interval_s must be positive, got {self.healthy_interval_s}"
            )
        if self.artifact_poll_s < 0:
            raise ServiceError(
                f"artifact_poll_s must be non-negative, got {self.artifact_poll_s}"
            )


def shared_artifact_engine(
    db: Any,
    artifact: str | Path,
    settings: Any = None,
    journal: str | Path | None = None,
) -> tuple[Callable[[], Any], Callable[[], Any]]:
    """``(prepare, factory)`` for serving one database via a shared artifact.

    *prepare* runs once in the parent before forking: it builds (or
    validates) the ``.npz`` columnar artifact on disk, paying the index
    build exactly once per deployment. *factory* runs in each worker
    after the fork: it re-attaches the artifact read-only and
    memory-mapped — N workers share one set of physical pages through the
    OS page cache — and wires a fresh :class:`Quest` over it. Workers
    never write the artifact.

    The built engine exposes an ``artifact_reload()`` callable: a pinned
    reader's republish hook. It peeks the published artifact generation
    and, when it has advanced past the attached one, catches the
    worker's forked database copy up by replaying the mutation
    *journal* (opened readonly — followers never repair the writer's
    file) to exactly that generation, then swaps the new artifact in
    atomically. Any failure leaves the current snapshot serving and is
    retried on the next poll; a successful swap clears the
    ``index-artifact-fallback`` health mark. The prefork worker loop
    calls it every ``PreforkSettings.artifact_poll_s`` seconds.
    """
    from repro.core.engine import Quest
    from repro.core.settings import QuestSettings
    from repro.db.fulltext import FullTextIndex
    from repro.journal import MutationJournal
    from repro.storage.memory import MemoryBackend
    from repro.wrapper.full import FullAccessWrapper

    engine_settings = settings if settings is not None else QuestSettings()
    artifact_path = Path(artifact)
    journal_path = Path(journal) if journal is not None else None

    def prepare() -> None:
        FullTextIndex.load_or_build(artifact_path, db)

    def factory() -> Any:
        try:
            index = FullTextIndex.load_or_build(
                artifact_path,
                db,
                mmap=True,
                readonly=True,
            )
        except Exception as exc:
            # Degraded-but-correct: a corrupt (or mid-replacement)
            # artifact must not keep the worker down. The dict-layout
            # index is built from the same database, so rankings are
            # bit-identical — only startup cost and per-query constants
            # change. The mark surfaces through /readyz.
            process_health.mark(
                "index-artifact-fallback",
                f"columnar artifact unusable ({exc}); "
                "serving from an in-process dict-layout index",
            )
            index = FullTextIndex(db, columnar=False)
            index.warm()
        backend = MemoryBackend(db, fulltext=index)
        engine = Quest(FullAccessWrapper(backend), engine_settings)

        def artifact_reload() -> bool:
            try:
                published = FullTextIndex.peek_generation(artifact_path)
                if published is None or published <= backend.fulltext.generation:
                    return False
                if journal_path is not None and published > backend.applied_seq:
                    with MutationJournal(journal_path, readonly=True) as follow:
                        backend.replay_journal(follow, up_to_seq=published)
                if not backend.maybe_reload_index(artifact_path, mmap=True):
                    return False
            except Exception:
                # Mid-republish torn reads, a journal not yet caught up,
                # validation mismatches: keep serving the pinned
                # generation and try again next poll.
                return False
            process_health.clear("index-artifact-fallback")
            return True

        engine.artifact_reload = artifact_reload
        return engine

    return prepare, factory


def _reset_prefork_lock(server: "PreforkServer") -> None:
    server._state_lock = threading.Lock()


class PreforkServer:
    """A supervised fleet of forked HTTP serving workers.

    Args:
        engine_factory: builds each worker's engine, called *in the
            worker after the fork* (so mmap attachments and fresh locks
            are per-process). See :func:`shared_artifact_engine`.
        service_settings: per-worker :class:`ServiceSettings`.
        quotas_factory: builds each worker's per-tenant quota tier
            (``None`` = no per-tenant limits).
        settings: process-tier knobs; defaults to
            :class:`PreforkSettings`.
        prepare: one-time parent-side setup run before any fork (build
            the shared artifact, warm shared state).
    """

    def __init__(
        self,
        engine_factory: Callable[[], Any],
        service_settings: ServiceSettings | None = None,
        quotas_factory: Callable[[], TenantQuotas] | None = None,
        settings: PreforkSettings | None = None,
        prepare: Callable[[], Any] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.settings = settings if settings is not None else PreforkSettings()
        self._engine_factory = engine_factory
        self._service_settings = service_settings
        self._quotas_factory = quotas_factory
        self._prepare = prepare
        self._clock = clock
        self._listener: socket.socket | None = None
        self._port: int | None = None
        self._state_lock = threading.Lock()
        # The supervisor forks while potentially holding this lock in a
        # sibling thread; workers must reset it (see repro.forksafe).
        register_lock_holder(self, _reset_prefork_lock)
        #: pid -> worker slot index, for every live worker.
        self._children: dict[int, int] = {}
        #: pid -> monotonic fork time, for healthy-interval accounting.
        self._spawn_times: dict[int, float] = {}
        #: slot -> consecutive crashes (cleared by a healthy lifetime).
        self._crash_streak: dict[int, int] = {}
        #: slot -> monotonic respawn-at time for slots waiting out backoff.
        self._pending: dict[int, float] = {}
        self._backoff_rng = random.Random(self.settings.backoff_seed)
        self._restarts = 0
        self._stopping = False
        self._failed = False
        self._supervisor: threading.Thread | None = None

    # -- parent lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Prepare shared state, bind the listener, fork the workers."""
        if self._supervisor is not None:
            raise ServiceError("server already started")
        if self._prepare is not None:
            self._prepare()
        self._bind()
        for slot in range(self.settings.workers):
            self._spawn(slot)
        self._supervisor = threading.Thread(
            target=self._supervise, name="quest-prefork-supervisor", daemon=True
        )
        self._supervisor.start()

    def _bind(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.settings.reuse_port:
            # The parent's socket only *reserves* the port (bound, never
            # listening, so the kernel excludes it from the accept
            # group); each worker binds its own listening SO_REUSEPORT
            # socket to the reserved port.
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            listener.bind((self.settings.host, self.settings.port))
        else:
            listener.bind((self.settings.host, self.settings.port))
            listener.listen(self.settings.backlog)
            listener.set_inheritable(True)
        self._listener = listener
        self._port = listener.getsockname()[1]

    @property
    def port(self) -> int:
        """The TCP port clients connect to (after :meth:`start`)."""
        if self._port is None:
            raise ServiceError("server is not started")
        return self._port

    @property
    def restarts(self) -> int:
        """Workers the supervisor has replaced so far."""
        with self._state_lock:
            return self._restarts

    @property
    def failed(self) -> bool:
        """Whether the restart budget was exhausted (fleet declared dead)."""
        with self._state_lock:
            return self._failed

    def worker_pids(self) -> list[int]:
        """Live worker pids (supervision may change them at any time)."""
        with self._state_lock:
            return sorted(self._children)

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until a worker answers ``/readyz`` (or raise)."""
        deadline = self._clock() + timeout
        last_error: Exception | None = None
        while self._clock() < deadline:
            try:
                connection = http.client.HTTPConnection(
                    self.settings.host, self.port, timeout=5.0
                )
                try:
                    connection.request("GET", "/readyz")
                    response = connection.getresponse()
                    response.read()
                    if response.status == 200:
                        return
                finally:
                    connection.close()
            except OSError as exc:
                last_error = exc
            time.sleep(0.05)
        raise ServiceError(
            f"no worker became ready within {timeout}s"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def stop(self, graceful: bool = True) -> None:
        """Tear the fleet down (SIGTERM drain, then SIGKILL stragglers)."""
        with self._state_lock:
            if self._stopping:
                return
            self._stopping = True
            pids = list(self._children)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM if graceful else signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - racing a death
                pass
        deadline = self._clock() + (
            self.settings.stop_timeout_s if graceful else 1.0
        )
        while self._clock() < deadline:
            with self._state_lock:
                if not self._children:
                    break
            time.sleep(_SUPERVISE_POLL_S)
        with self._state_lock:
            stragglers = list(self._children)
        for pid in stragglers:  # pragma: no cover - drain overran its budget
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()

    def run(self) -> int:
        """Blocking entry point for scripts: start, serve until SIGTERM/
        SIGINT, drain, exit. Returns a process exit code."""
        stop_requested = threading.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop_requested.set())
        self.start()
        print(
            f"quest-serve: {self.settings.workers} workers on "
            f"{self.settings.host}:{self.port} "
            f"({'SO_REUSEPORT' if self.settings.reuse_port else 'shared listener fd'})"
        )
        while not stop_requested.is_set() and not self.failed:
            stop_requested.wait(timeout=0.5)
        self.stop(graceful=True)
        return 1 if self.failed else 0

    def __enter__(self) -> "PreforkServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- supervision ---------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Worker. Never return into the parent's call stack: serve,
            # then _exit (skipping atexit/pytest machinery the child
            # inherited but must not run).
            code = 1
            try:
                code = self._worker_main(slot)
            finally:
                os._exit(code)
        with self._state_lock:
            self._children[pid] = slot
            self._spawn_times[pid] = self._clock()

    def _respawn_delay(self, streak: int) -> float:
        """Equal-jitter exponential backoff for the *streak*-th crash.

        Jitter decorrelates slots: two workers killed by the same event
        must not refork (and re-crash) in lockstep forever.
        """
        capped = min(
            self.settings.restart_backoff_max_s,
            self.settings.restart_backoff_s * (2.0**streak),
        )
        return capped / 2.0 + self._backoff_rng.random() * capped / 2.0

    def _supervise(self) -> None:
        """Reap dead workers; replace them while the budget allows.

        Polls each known worker pid individually — a ``waitpid(-1)``
        would steal exit notifications from unrelated children of this
        process (the embedding application may fork its own).
        Replacements respect the per-slot backoff schedule:
        a reaped slot is queued with a respawn time and forked only
        once that time passes.
        """
        while True:
            with self._state_lock:
                pids = list(self._children)
                if (
                    not pids
                    and not self._pending
                    and (self._stopping or self._failed)
                ):
                    return
            for pid in pids:
                try:
                    reaped, status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:  # pragma: no cover - reaped elsewhere
                    reaped = pid
                    status = 0
                if reaped == 0:
                    continue
                now = self._clock()
                with self._state_lock:
                    slot = self._children.pop(pid, None)
                    born = self._spawn_times.pop(pid, None)
                    stopping = self._stopping
                    if slot is not None and not stopping:
                        healthy = (
                            born is not None
                            and now - born >= self.settings.healthy_interval_s
                        )
                        if healthy:
                            # A long-lived worker dying is churn, not a
                            # storm: forgive the slot and the fleet.
                            self._crash_streak.pop(slot, None)
                            self._restarts = 0
                        streak = self._crash_streak.get(slot, 0)
                        self._crash_streak[slot] = streak + 1
                        self._restarts += 1
                        if self._restarts > self.settings.max_restarts:
                            self._failed = True
                            self._stopping = True
                            stopping = True
                        else:
                            self._pending[slot] = now + self._respawn_delay(
                                streak
                            )
            # Fork replacements whose backoff has elapsed.
            now = self._clock()
            with self._state_lock:
                if self._stopping or self._failed:
                    self._pending.clear()
                due = [
                    slot
                    for slot, respawn_at in self._pending.items()
                    if respawn_at <= now
                ]
                for slot in due:
                    del self._pending[slot]
            for slot in due:
                self._spawn(slot)
            time.sleep(_SUPERVISE_POLL_S)

    # -- the worker ----------------------------------------------------------

    def _worker_listener(self) -> socket.socket:
        if self.settings.reuse_port:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            listener.bind((self.settings.host, self.port))
            listener.listen(self.settings.backlog)
            return listener
        assert self._listener is not None
        return self._listener

    def _worker_main(self, slot: int) -> int:
        # Default dispositions first: the parent's run() handler (if
        # any) was inherited across the fork and must not fire here.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        import asyncio

        try:
            # Chaos hook: an installed FaultPlan (inherited across the
            # fork) can delay, fail or crash worker startup here.
            faults.fire("worker.start")
            engine = self._engine_factory()
        except Exception as exc:
            print(f"quest-serve worker {os.getpid()}: engine build failed: {exc}")
            return 1
        service = QuestService(engine, self._service_settings)
        quotas = (
            self._quotas_factory() if self._quotas_factory is not None else None
        )
        server = QuestHttpServer(
            service,
            settings=HttpServerSettings(
                host=self.settings.host,
                port=self.port,
                drain_timeout_s=self.settings.drain_timeout_s,
            ),
            quotas=quotas,
            sock=self._worker_listener(),
        )

        reload_artifact = getattr(engine, "artifact_reload", None)

        async def poll_artifact() -> None:
            # Between-requests republish pickup: the swap itself is an
            # atomic attribute replace, so requests in flight keep the
            # generation they started on.
            while True:
                await asyncio.sleep(self.settings.artifact_poll_s)
                try:
                    reload_artifact()
                except Exception:  # pragma: no cover - reload never raises
                    pass

        async def serve() -> None:
            await server.start()
            stopped = asyncio.Event()
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, stopped.set)
            poller = None
            if reload_artifact is not None and self.settings.artifact_poll_s > 0:
                poller = asyncio.ensure_future(poll_artifact())
            try:
                await stopped.wait()
            finally:
                if poller is not None:
                    poller.cancel()
            # Graceful drain: refuse new connections, finish in-flight.
            await server.close()

        try:
            asyncio.run(serve())
        except Exception as exc:  # pragma: no cover - loop-level failure
            print(f"quest-serve worker {os.getpid()}: {exc}")
            return 1
        return 0

    def __repr__(self) -> str:
        bound = self._port if self._port is not None else "unbound"
        return (
            f"PreforkServer(workers={self.settings.workers}, port={bound}, "
            f"restarts={self.restarts})"
        )


def fetch_json(
    host: str, port: int, path: str, timeout: float = 30.0
) -> tuple[int, dict]:
    """One GET against a serving worker, JSON-decoded (tests + benchmarks)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body else {}
    finally:
        connection.close()
