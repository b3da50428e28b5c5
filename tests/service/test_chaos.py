"""Chaos suite: the resilience tier under seeded fault injection.

Every scenario here is driven by a deterministic :class:`FaultPlan` (or
a fake clock), so the schedules replay bit-for-bit: same seed, same
call sequence, same faults. The suite covers the four resilience
surfaces end to end — request deadlines (504 vs degraded best-so-far),
the storage failure window (trip, fallback parity, recovery by
successes), revision-stale serving with the ``Warning`` header (and 503
when there is nothing to serve), and the
preforked fleet's crash recovery with backoff — plus unit tests for the
primitives themselves.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
import time

import pytest

from repro import faults
from repro.core import MultiSourceQuest, Quest
from repro.core.settings import QuestSettings
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    FaultInjectedError,
    QuestError,
)
from repro.faults import FaultPlan
from repro.resilience import (
    Deadline,
    FailureWindow,
    RetryPolicy,
    process_health,
)
from repro.resilience.window import MIN_OUTCOMES, WINDOW
from repro.service import (
    PreforkServer,
    PreforkSettings,
    QuestService,
    ServiceError,
    shared_artifact_engine,
)
from repro.service.prefork import fetch_json
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from repro.wrapper.full import FullAccessWrapper

from tests.oracle import reference_kernels

_QUERY = "kubrick movies"
_SEARCH_PATH = "/search?q=kubrick%20movies&k=3"


@pytest.fixture(autouse=True)
def _clean_slate():
    """No leaked fault plans or health marks across tests."""
    faults.clear()
    process_health.reset()
    yield
    faults.clear()
    process_health.reset()


class _FakeClock:
    """A hand-cranked monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _ranking(context):
    """The rank-identity fingerprint: exact SQL and exact probability."""
    return [(e.sql, e.probability) for e in context.explanations]


# -- the fault-injection harness itself ---------------------------------------


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        def run(plan: FaultPlan) -> tuple[str, ...]:
            with faults.injected(plan):
                for _ in range(60):
                    try:
                        faults.fire("storage.query")
                    except FaultInjectedError:
                        pass
            return plan.decisions("storage.query")

        first = run(FaultPlan(seed=42).inject("storage.query", kind="error", rate=0.3))
        second = run(FaultPlan(seed=42).inject("storage.query", kind="error", rate=0.3))
        assert first == second
        assert "error" in first and "pass" in first  # a real mixed schedule

    def test_different_seed_different_schedule(self):
        def decisions(seed: int) -> tuple[str, ...]:
            plan = FaultPlan(seed=seed).inject(
                "storage.query", kind="error", rate=0.5
            )
            with faults.injected(plan):
                for _ in range(64):
                    try:
                        faults.fire("storage.query")
                    except FaultInjectedError:
                        pass
            return plan.decisions("storage.query")

        assert decisions(1) != decisions(2)

    def test_after_and_times_bound_the_window(self):
        plan = FaultPlan().inject(
            "storage.query", kind="error", rate=1.0, after=2, times=1
        )
        with faults.injected(plan):
            outcomes = []
            for _ in range(5):
                try:
                    faults.fire("storage.query")
                    outcomes.append("ok")
                except FaultInjectedError:
                    outcomes.append("boom")
        assert outcomes == ["ok", "ok", "boom", "ok", "ok"]

    def test_flake_recovers_after_budget(self):
        plan = FaultPlan().inject(
            "artifact.load", kind="flake", rate=1.0, recover_after=2
        )
        with faults.injected(plan):
            failures = 0
            for _ in range(5):
                try:
                    faults.fire("artifact.load")
                except FaultInjectedError:
                    failures += 1
        assert failures == 2
        assert plan.decisions("artifact.load") == (
            "flake",
            "flake",
            "recovered",
            "recovered",
            "recovered",
        )

    def test_custom_error_instances_propagate(self):
        plan = FaultPlan().inject(
            "storage.query",
            kind="error",
            error=sqlite3.OperationalError("injected: database is locked"),
        )
        with faults.injected(plan):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                faults.fire("storage.query")

    def test_latency_faults_sleep(self):
        plan = FaultPlan().inject("emission.compute", kind="latency", delay_s=0.05)
        with faults.injected(plan):
            start = time.monotonic()
            faults.fire("emission.compute")
            assert time.monotonic() - start >= 0.04

    def test_unknown_point_and_kind_rejected(self):
        with pytest.raises(QuestError):
            FaultPlan().inject("no.such.point", kind="error")
        with pytest.raises(QuestError):
            FaultPlan().inject("storage.query", kind="meteor")
        with pytest.raises(QuestError):
            FaultPlan().inject("storage.query", kind="flake")  # no recover_after

    def test_no_plan_installed_is_a_noop(self):
        assert faults.active() is None
        faults.fire("storage.query")  # must not raise

    def test_fire_rejects_unknown_point_when_plan_installed(self):
        """A typo'd instrumentation site must fail loudly under a plan —
        otherwise the chaos suite silently stops covering that seam."""
        plan = FaultPlan().inject("storage.query", kind="error")
        with faults.injected(plan):
            with pytest.raises(QuestError, match="unknown injection point"):
                faults.fire("storage.qurey")

    def test_fire_rejects_unknown_point_without_specs_for_it(self):
        # The rejection is registry-based, not spec-based: a known point
        # with no spec passes, an unknown one raises regardless.
        plan = FaultPlan()
        with faults.injected(plan):
            faults.fire("journal.append")  # known, no spec: passes
            with pytest.raises(QuestError, match="unknown injection point"):
                plan.fire("bogus.point")

    def test_module_fire_unknown_point_without_plan_is_noop(self):
        # Production fast path: no plan installed means no registry check
        # (the static fault-points rule covers uninstalled typos).
        assert faults.active() is None
        faults.fire("bogus.point")  # must not raise


# -- the resilience primitives ------------------------------------------------


class TestFailureWindow:
    def test_stays_healthy_below_min_outcomes(self):
        window = FailureWindow("dep")
        for _ in range(MIN_OUTCOMES - 1):
            window.record(False)
        assert window.counts() == (MIN_OUTCOMES - 1, MIN_OUTCOMES - 1)
        assert not window.counts().failing  # every outcome failed, but too few

    def test_trips_at_failure_rate(self):
        window = FailureWindow("dep")
        for ok in (True, True, True, False, False):
            window.record(ok)
        assert not window.counts().failing  # 2/5 under the rate
        window.record(False)
        assert window.counts() == (3, 6)
        assert window.counts().failing  # 3/6 reaches it

    def test_successes_heal_the_window(self):
        window = FailureWindow("dep")
        for _ in range(MIN_OUTCOMES):
            window.record(False)
        assert window.counts().failing
        healed_after = 0
        while window.counts().failing:
            window.record(True)
            healed_after += 1
        # No timer: the first success that takes the rate under one
        # half (5 of 11) heals it.
        assert healed_after == MIN_OUTCOMES + 1
        for _ in range(WINDOW):
            window.record(True)
        assert window.counts() == (0, WINDOW)  # old outcomes roll out

    def test_concurrent_records_keep_the_window_bounded(self):
        window = FailureWindow("dep")
        readings = []

        def record(ok):
            for _ in range(500):
                window.record(ok)
                readings.append(window.counts())

        threads = [
            threading.Thread(target=record, args=(index % 2 == 0,))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every reading is one consistent snapshot of a bounded window.
        assert all(
            0 <= failed <= recorded <= WINDOW for failed, recorded in readings
        )
        assert window.counts().recorded == WINDOW


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        sleeps: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay_s=0.01, max_delay_s=0.04, seed=5)
        result = policy.call(
            flaky, retry_on=(sqlite3.OperationalError,), sleep=sleeps.append
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert all(delay > 0 for delay in sleeps)

    def test_final_failure_propagates_unwrapped(self):
        def doomed():
            raise sqlite3.OperationalError("still locked")

        policy = RetryPolicy(attempts=2, base_delay_s=0.0, max_delay_s=0.0)
        with pytest.raises(sqlite3.OperationalError, match="still locked"):
            policy.call(doomed, retry_on=(sqlite3.OperationalError,))

    def test_non_matching_exceptions_not_retried(self):
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise ValueError("not transient")

        policy = RetryPolicy(attempts=5, base_delay_s=0.0, max_delay_s=0.0)
        with pytest.raises(ValueError):
            policy.call(wrong_kind, retry_on=(sqlite3.OperationalError,))
        assert calls["n"] == 1

    def test_delays_seeded_and_bounded(self):
        first = list(RetryPolicy(attempts=4, seed=9).delays())
        second = list(RetryPolicy(attempts=4, seed=9).delays())
        assert first == second
        assert len(first) == 3
        raw = 0.01
        for delay in first:
            capped = min(0.25, raw)
            assert capped / 2.0 <= delay <= capped
            raw *= 2.0

    def test_on_retry_hook_sees_each_failure(self):
        seen: list[int] = []

        def doomed():
            raise sqlite3.OperationalError("locked")

        policy = RetryPolicy(attempts=3, base_delay_s=0.0, max_delay_s=0.0)
        with pytest.raises(sqlite3.OperationalError):
            policy.call(
                doomed,
                retry_on=(sqlite3.OperationalError,),
                on_retry=lambda exc, attempt: seen.append(attempt),
            )
        assert seen == [1, 2]  # the final failure raises instead of hooking


class TestDeadline:
    def test_from_ms_none_means_unbounded(self):
        assert Deadline.from_ms(None) is None

    def test_expiry_follows_the_clock(self):
        clock = _FakeClock()
        deadline = Deadline(50.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining_s() == pytest.approx(0.05)
        clock.advance(0.049)
        assert not deadline.expired()
        clock.advance(0.002)
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0
        assert deadline.elapsed_ms() == pytest.approx(51.0)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(QuestError):
            QuestSettings(default_deadline_ms=-5.0)


# -- storage chaos: window trip, fallback parity, recovery -------------------


def _fast_retry():
    return RetryPolicy(attempts=2, base_delay_s=0.001, max_delay_s=0.002, seed=1)


def _failing_storage(**options):
    """A plan failing every SQLite read until the block exits."""
    return FaultPlan(seed=7).inject(
        "storage.query",
        kind="error",
        rate=1.0,
        error=sqlite3.OperationalError,
        **options,
    )


class TestStorageChaos:
    def test_sqlite_failures_trip_the_window(self, mini_db):
        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        before = backend.read_health.counts()
        with faults.injected(_failing_storage()):
            for _ in range(3):
                with pytest.raises(ExecutionError):
                    backend.attribute_scores("kubrick")
        # Two attempts per call, each failed attempt recorded.
        failed, recorded = backend.read_health.counts()
        assert failed - before.failed == 6
        assert recorded - before.recorded == 6
        assert backend.read_health.counts().failing

    def test_transient_flake_is_retried_to_success(self, mini_db):
        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        # One injected failure, then the dependency is healthy again: the
        # in-call retry absorbs it and the caller never sees an error.
        with faults.injected(_failing_storage(times=1)):
            scores = backend.attribute_scores("kubrick")
        assert scores  # the retry got the real answer
        assert backend.read_health.counts().failed == 1
        assert not backend.read_health.counts().failing

    def test_successes_heal_the_window(self, mini_db):
        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        with faults.injected(_failing_storage(times=6)):
            for _ in range(3):
                with pytest.raises(ExecutionError):
                    backend.attribute_scores("kubrick")
            assert backend.read_health.counts().failing
            # The dependency healed (times=6 exhausted): reads succeed
            # again, and their successes alone take the window back
            # under the rate — no timer involved.
            reads = 0
            while backend.read_health.counts().failing and reads < WINDOW:
                assert backend.attribute_scores("kubrick")
                reads += 1
        assert not backend.read_health.counts().failing
        assert reads < WINDOW

    def test_failing_window_rankings_identical_to_reference(self, mini_db):
        # Pin the window failing before every search and prove the
        # engine still answers — identically to the pure-Python
        # reference kernels — because the window records and reports,
        # never refuses.
        backend = SQLiteBackend.from_database(mini_db)
        degraded = Quest(FullAccessWrapper(backend))
        reference = Quest(FullAccessWrapper(MemoryBackend(mini_db)))
        for query in (_QUERY, "scott scifi", "kubrick horror 1980"):
            for _ in range(WINDOW):
                backend.read_health.record(False)
            assert backend.read_health.counts().failing
            got = degraded.search_context(query=query)
            with reference_kernels():
                want = reference.search_context(query=query)
            assert _ranking(got) == _ranking(want), query
            assert not got.trace.degraded  # answers are full, not partial


# -- deadline enforcement -----------------------------------------------------


class TestDeadlineEnforcement:
    def test_exhausted_budget_with_nothing_salvageable_raises(self, mini_engine):
        with pytest.raises(DeadlineExceededError) as info:
            mini_engine.search_context(query=_QUERY, deadline=Deadline(0.001))
        assert info.value.budget_ms == pytest.approx(0.001)

    def test_settings_default_deadline_applies(self, mini_db):
        engine = Quest(
            FullAccessWrapper(MemoryBackend(mini_db)),
            QuestSettings(default_deadline_ms=0.001),
        )
        with pytest.raises(DeadlineExceededError):
            engine.search_context(query=_QUERY)

    def test_mid_pipeline_expiry_serves_best_so_far(self, mini_engine):
        # The first steiner call passes its injection point untouched
        # (after=1) and lands real interpretations; the second sleeps past
        # the budget, so the backward stage stops and the pipeline
        # finishes degraded with the answers it already has.
        plan = FaultPlan(seed=3).inject(
            "steiner.expand", kind="latency", delay_s=0.08, after=1
        )
        budget_ms = 60.0
        start = time.monotonic()
        with faults.injected(plan):
            context = mini_engine.search_context(
                query=_QUERY, deadline=Deadline(budget_ms)
            )
        elapsed = time.monotonic() - start
        assert context.trace.degraded
        assert context.explanations  # best-so-far, not empty
        assert any(note.startswith("deadline:") for note in context.trace.notes)
        # Cooperative cancellation: overrun is bounded by one blocking
        # call past the budget (the injected 80ms sleep), not unbounded.
        assert elapsed < budget_ms / 1e3 + 0.08 * 3 + 0.3

    def test_degraded_results_never_cached(self, mini_db):
        engine = Quest(FullAccessWrapper(MemoryBackend(mini_db)))
        service = QuestService(engine)
        plan = FaultPlan(seed=3).inject(
            "steiner.expand", kind="latency", delay_s=0.08, after=1
        )
        with faults.injected(plan):
            degraded = service.search(_QUERY, k=3, deadline_ms=60.0)
        assert degraded.degraded and degraded.source == "engine"
        # The fault is gone; the same query must re-run the engine (the
        # degraded ranking was never published to the result cache) and
        # come back complete.
        healthy = service.search(_QUERY, k=3)
        assert healthy.source == "engine"
        assert not healthy.degraded
        assert len(healthy.explanations) >= len(degraded.explanations)

    def test_deadline_accounting_sums_under_concurrency(self, mini_db):
        engine = Quest(FullAccessWrapper(MemoryBackend(mini_db)))
        service = QuestService(engine)
        total, budgeted = 12, 5
        outcomes: list[str] = []
        lock = threading.Lock()

        def one(index: int) -> None:
            # A distinct k per request is a distinct result-cache and
            # flight key: no request coalesces with or hits the cache
            # entry of another, so each one runs under its own budget.
            try:
                response = service.search(
                    _QUERY,
                    k=index + 1,
                    deadline_ms=0.001 if index < budgeted else None,
                )
                outcome = "degraded" if response.degraded else "ok"
            except DeadlineExceededError:
                outcome = "expired"
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=one, args=(index,)) for index in range(total)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(outcomes) == total
        snapshot = service.metrics()
        assert snapshot.requests == total
        assert snapshot.errors == 0
        # Every request is accounted exactly once: answered or expired.
        assert snapshot.completed + snapshot.deadline_expired == total
        assert snapshot.deadline_expired == outcomes.count("expired")
        assert snapshot.degraded == outcomes.count("degraded")
        assert outcomes.count("expired") == budgeted  # 1µs never survives


# -- artifact corruption: in-process rebuild fallback -------------------------


class TestArtifactFallback:
    def test_corrupt_artifact_degrades_to_identical_rankings(
        self, mini_db, tmp_path
    ):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        prepare()
        assert artifact.exists()
        artifact.write_bytes(b"this is not an npz artifact")
        engine = factory()  # must come up anyway
        assert process_health.degraded()
        assert "index-artifact-fallback" in process_health.reasons()
        reference = Quest(FullAccessWrapper(MemoryBackend(mini_db)))
        got = engine.search_context(query=_QUERY)
        with reference_kernels():
            want = reference.search_context(query=_QUERY)
        assert got.explanations
        assert _ranking(got) == _ranking(want)

    def test_fallback_surfaces_through_service_degradation(
        self, mini_db, tmp_path
    ):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        prepare()
        artifact.write_bytes(b"garbage")
        service = QuestService(factory())
        state = service.degradation()
        assert state["degraded"]
        assert any("index-artifact-fallback" in reason for reason in state["reasons"])

    def test_intact_artifact_keeps_the_process_healthy(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        prepare()
        service = QuestService(factory())
        state = service.degradation()
        assert not state["degraded"]
        assert state["reasons"] == []


# -- stale serving ------------------------------------------------------------


class TestStaleServing:
    def _service(self, mini_db):
        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        engine = Quest(FullAccessWrapper(backend))
        return QuestService(engine)

    def test_storage_failure_serves_the_last_good_ranking(self, mini_db):
        service = self._service(mini_db)
        primed = service.search(_QUERY, k=3)
        assert primed.source == "engine" and primed.explanations
        service.invalidate()  # force the next request through the engine
        plan = FaultPlan(seed=11).inject(
            "storage.query",
            kind="error",
            rate=1.0,
            error=sqlite3.OperationalError,
        )
        with faults.injected(plan):
            fallback = service.search(_QUERY, k=3)
        assert fallback.source == "stale"
        assert fallback.stale and fallback.degraded
        assert _ranking(fallback) == _ranking(primed)
        snapshot = service.metrics()
        assert snapshot.stale_served == 1
        assert snapshot.errors == 0  # the request was answered, not failed
        state = service.degradation()
        assert state["degraded"]

    def test_unprimed_queries_still_fail(self, mini_db):
        service = self._service(mini_db)
        plan = FaultPlan(seed=11).inject(
            "storage.query",
            kind="error",
            rate=1.0,
            error=sqlite3.OperationalError,
        )
        with faults.injected(plan):
            with pytest.raises(ExecutionError):
                service.search("scott scifi", k=3)
        assert service.metrics().errors == 1

    def test_flaky_storage_storm_answers_every_request(self, mini_db):
        # Eight threads storm the default service while a seeded plan
        # fails 10% of storage reads. Each read gets two tries: the
        # retry absorbs a single flake, and a read that flakes twice
        # falls through to the primed stale tier. No request may go
        # unanswered, and every answer is the primed ranking.
        from concurrent.futures import ThreadPoolExecutor

        texts = (
            "kubrick movies",
            "scott scifi",
            "varda documentary",
            "shining kubrick",
            "horror movies",
            "blade runner",
        )
        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        service = QuestService(Quest(FullAccessWrapper(backend)))
        primed = {text: _ranking(service.search(text, k=3)) for text in texts}
        assert all(primed.values())
        plan = FaultPlan(seed=17).inject(
            "storage.query",
            kind="error",
            rate=0.10,
            error=sqlite3.OperationalError,
        )

        def answer(text):
            try:
                response = service.search(text, k=3)
            except Exception as exc:  # any failure is an unanswered request
                return text, f"failed: {exc!r}", None
            return text, response.source, _ranking(response)

        outcomes = []
        with faults.injected(plan):
            for _ in range(4):
                # Each round starts with an empty result cache, so every
                # distinct query runs the engine over the flaky storage.
                service.invalidate()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    outcomes.extend(pool.map(answer, texts * 8))
        assert len(outcomes) == 4 * 8 * len(texts)
        failed = [
            (text, source)
            for text, source, _ in outcomes
            if source.startswith("failed")
        ]
        assert failed == []
        for text, _source, ranking in outcomes:
            assert ranking == primed[text]
        assert "error" in plan.decisions("storage.query")  # it did flake
        snapshot = service.metrics()
        assert snapshot.errors == 0
        assert snapshot.stale_served == sum(
            1 for _text, source, _ in outcomes if source == "stale"
        )


class TestMultiSourceStorageFailure:
    """A failing source fails the merged answer; it is never dropped."""

    def _service(self, mini_db):
        multi = MultiSourceQuest(
            {
                "mem": Quest(FullAccessWrapper(MemoryBackend(mini_db))),
                "sqlite": Quest(
                    FullAccessWrapper(
                        SQLiteBackend.from_database(mini_db, retry=_fast_retry())
                    )
                ),
            }
        )
        return QuestService(multi)

    @staticmethod
    def _sources(response):
        return {name for name, _explanation in response.explanations}

    def test_failing_source_serves_stale_then_recovers(self, mini_db):
        service = self._service(mini_db)
        healthy = service.search(_QUERY, k=6)
        assert healthy.source == "engine"
        assert self._sources(healthy) == {"mem", "sqlite"}
        assert not service.degradation()["degraded"]
        service.invalidate()
        with faults.injected(_failing_storage()):
            fallback = service.search(_QUERY, k=6)
        # The merged ranking is the last complete one, flagged stale —
        # not a mem-only ranking passed off as a fresh answer.
        assert fallback.source == "stale" and fallback.degraded
        assert fallback.explanations == healthy.explanations
        recovered = service.search(_QUERY, k=6)
        assert recovered.source == "engine"  # nothing partial was cached
        assert recovered.explanations == healthy.explanations

    def test_failing_source_without_stale_entry_raises(self, mini_db):
        service = self._service(mini_db)
        with faults.injected(_failing_storage()):
            with pytest.raises(ExecutionError):
                service.search(_QUERY, k=6)
        assert service.metrics().errors == 1
        # The failure cached nothing: the healthy retry runs the engine
        # and merges both sources.
        response = service.search(_QUERY, k=6)
        assert response.source == "engine"
        assert self._sources(response) == {"mem", "sqlite"}

    def test_degradation_reports_the_failing_source(self, mini_db):
        service = self._service(mini_db)
        window = service.engine.engines["sqlite"].wrapper.backend.read_health
        assert not service.degradation()["degraded"]
        with faults.injected(_failing_storage()):
            for _ in range(MIN_OUTCOMES):
                with pytest.raises(ExecutionError):
                    service.search(_QUERY, k=6)
        failed, recorded = window.counts()
        assert failed == 2 * MIN_OUTCOMES  # two attempts per request
        assert service.degradation() == {
            "degraded": True,
            "reasons": [
                f"storage {window.name!r} failing ({failed} of {recorded} "
                "recent reads)"
            ],
        }


# -- the HTTP surface under chaos ---------------------------------------------


class TestChaosOverHttp:
    def test_deadline_header_maps_to_504_within_budget(self, mini_engine):
        from test_http import _ServerThread

        service = QuestService(mini_engine)
        with _ServerThread(service) as harness:
            start = time.monotonic()
            status, payload, _ = harness.get(
                _SEARCH_PATH, headers={"X-Quest-Deadline-Ms": "0.05"}
            )
            elapsed = time.monotonic() - start
            assert status == 504
            assert payload["error"]["code"] == "deadline_exceeded"
            assert payload["error"]["budget_ms"] == pytest.approx(0.05)
            assert payload["error"]["request_id"]
            # Budget + tolerance: the 50µs budget aborts at the first
            # stage boundary; generous slack covers the HTTP round trip.
            assert elapsed < 0.05 / 1e3 + 0.05 + 0.5
            # The connection survived the 504 (keep-alive intact).
            status, _, _ = harness.get("/healthz")
            assert status == 200

    def test_invalid_deadline_header_is_400(self, mini_engine):
        from test_http import _ServerThread

        with _ServerThread(QuestService(mini_engine)) as harness:
            for bad in ("soon", "-10", "0", "inf"):
                status, payload, _ = harness.get(
                    _SEARCH_PATH, headers={"X-Quest-Deadline-Ms": bad}
                )
                assert status == 400, bad
                assert payload["error"]["code"] == "bad_request"

    def test_stale_answers_carry_warning_header_and_flags(self, mini_db):
        from test_http import _ServerThread

        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        service = QuestService(Quest(FullAccessWrapper(backend)))
        with _ServerThread(service) as harness:
            status, primed, _ = harness.get(_SEARCH_PATH)
            assert status == 200 and not primed["degraded"]
            service.invalidate()
            plan = FaultPlan(seed=11).inject(
                "storage.query",
                kind="error",
                rate=1.0,
                error=sqlite3.OperationalError,
            )
            with faults.injected(plan):
                status, payload, headers = harness.get(_SEARCH_PATH)
                assert status == 200
                assert payload["source"] == "stale"
                assert payload["stale"] and payload["degraded"]
                assert payload["results"] == primed["results"]
                assert "stale result" in headers.get("Warning", "")
                # Readiness reflects the degradation while it lasts.
                status, ready, _ = harness.get("/readyz")
                assert status == 200
                assert ready["status"] == "degraded"
                assert ready["reasons"]
                status, metrics, _ = harness.get("/metrics")
                assert metrics["service"]["stale_served"] == 1
                assert metrics["degradation"]["degraded"] is True

    def test_storage_failure_without_stale_entry_is_503(self, mini_db):
        from test_http import _ServerThread

        backend = SQLiteBackend.from_database(mini_db, retry=_fast_retry())
        service = QuestService(Quest(FullAccessWrapper(backend)))
        with _ServerThread(service) as harness:
            with faults.injected(_failing_storage()):
                # No stale entry to fall back on: the outage is a 503
                # the client may retry, not a 400 blaming its query.
                for _ in range(MIN_OUTCOMES):
                    status, payload, headers = harness.get(_SEARCH_PATH)
                    assert status == 503
                    assert payload["error"]["code"] == "storage_unavailable"
                    assert "sqlite error" in payload["error"]["message"]
                    assert payload["error"]["request_id"]
                    assert headers.get("Retry-After") == "1"
                status, ready, _ = harness.get("/readyz")
                assert status == 200
                assert ready["status"] == "degraded"
                assert any("failing" in reason for reason in ready["reasons"])
            # The outage is over: the same query answers normally.
            status, payload, _ = harness.get(_SEARCH_PATH)
            assert status == 200 and payload["source"] == "engine"

    def test_unhandled_route_errors_become_structured_500(self, mini_engine):
        from test_http import _ServerThread

        service = QuestService(mini_engine)
        with _ServerThread(service) as harness:

            def explode():
                raise RuntimeError("metrics wiring bug")

            harness.server.service = service  # unchanged; break metrics only
            service.metrics = explode
            status, payload, _ = harness.get("/metrics")
            assert status == 500
            assert payload["error"]["code"] == "internal"
            assert "metrics wiring bug" in payload["error"]["message"]
            assert payload["error"]["request_id"]
            # Keep-alive survived the failure: the next request on the
            # same server answers normally.
            status, _, _ = harness.get("/healthz")
            assert status == 200


# -- the preforked fleet under chaos ------------------------------------------


def _wait_for(predicate, timeout=20.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


class TestPreforkChaos:
    def test_backoff_settings_validation(self):
        with pytest.raises(ServiceError):
            PreforkSettings(restart_backoff_s=0.0)
        with pytest.raises(ServiceError):
            PreforkSettings(restart_backoff_s=1.0, restart_backoff_max_s=0.5)
        with pytest.raises(ServiceError):
            PreforkSettings(healthy_interval_s=0.0)

    def test_respawn_backoff_is_seeded_exponential_with_jitter(self):
        def schedule():
            server = PreforkServer(
                lambda: None,
                settings=PreforkSettings(
                    backoff_seed=7,
                    restart_backoff_s=0.1,
                    restart_backoff_max_s=1.0,
                ),
            )
            return [server._respawn_delay(streak) for streak in range(6)]

        first, second = schedule(), schedule()
        assert first == second  # same seed, same schedule
        for streak, delay in enumerate(first):
            capped = min(1.0, 0.1 * 2.0**streak)
            assert capped / 2.0 <= delay <= capped, (streak, delay)

    def test_sigkilled_worker_mid_request_client_retry_succeeds(
        self, mini_db, tmp_path
    ):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        server = PreforkServer(
            factory,
            settings=PreforkSettings(workers=2, max_restarts=4, backoff_seed=11),
            prepare=prepare,
        )
        with server:
            server.wait_ready()
            victim = server.worker_pids()[0]
            results: dict[str, dict] = {}

            def client():
                # The kill can sever this client's connection mid-request;
                # a bounded retry must land on a live (or respawned)
                # worker and succeed.
                for _ in range(60):
                    try:
                        status, body = fetch_json(
                            "127.0.0.1", server.port, _SEARCH_PATH, timeout=5.0
                        )
                        if status == 200 and body.get("results"):
                            results["body"] = body
                            return
                    except Exception:
                        pass
                    time.sleep(0.1)

            thread = threading.Thread(target=client)
            thread.start()
            import os
            import signal

            os.kill(victim, signal.SIGKILL)
            thread.join(30)
            assert results.get("body"), "client never got an answer"
            _wait_for(
                lambda: victim not in server.worker_pids()
                and len(server.worker_pids()) == 2,
                message="supervisor to replace the killed worker",
            )
            assert server.restarts >= 1
            assert not server.failed
