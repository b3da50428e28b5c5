"""Chaos suite: the resilience tier under seeded fault injection.

Every scenario here is driven by a deterministic :class:`FaultPlan` (or
a fake clock), so the schedules replay bit-for-bit: same seed, same
call sequence, same faults. The suite covers the four resilience
surfaces end to end — request deadlines (504 vs degraded best-so-far),
the storage circuit breaker (trip, fallback parity, half-open
recovery), revision-stale serving with the ``Warning`` header, and the
preforked fleet's crash recovery with backoff — plus unit tests for the
primitives themselves.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.core import Quest
from repro.core.settings import QuestSettings
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    FaultInjectedError,
    QuestError,
)
from repro.faults import FaultPlan
from repro.resilience import (
    BreakerSettings,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    process_health,
)
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
    """A hand-cranked monotonic clock for breaker/deadline tests."""

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


class TestCircuitBreaker:
    def _breaker(self, clock, **changes):
        settings = dict(
            window=8,
            min_calls=4,
            failure_threshold=0.5,
            reset_timeout_s=1.0,
            half_open_probes=2,
            jitter=0.0,
        )
        settings.update(changes)
        return CircuitBreaker(
            "dep", BreakerSettings(**settings), seed=0, clock=clock
        )

    def test_stays_closed_below_min_calls(self):
        breaker = self._breaker(_FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_trips_at_failure_rate(self):
        breaker = self._breaker(_FakeClock())
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # 1/3 under threshold
        breaker.record_failure()
        breaker.record_failure()  # 3/5 >= 0.5, window >= min_calls
        assert breaker.state == "open"
        breaker.record_success()
        assert breaker.state == "open"  # only the timeout ends an open span

    def test_half_open_probes_then_close(self):
        clock = _FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.99)
        assert breaker.state == "open"  # jitter=0: opens for exactly 1s
        clock.advance(0.02)
        assert breaker.state == "half-open"
        # Exactly half_open_probes successes close the circuit.
        breaker.record_success()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.snapshot()["failures"] == 0  # window cleared on close

    def test_half_open_failure_reopens(self):
        clock = _FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.5)
        assert breaker.state == "open"  # a fresh full timeout applies

    def test_seeded_jitter_is_deterministic(self):
        def open_span(breaker, clock):
            for _ in range(4):
                breaker.record_failure()
            low, high = 0.0, 10.0
            for _ in range(40):  # bisect the reopen boundary
                mid = (low + high) / 2.0
                clock.now = mid
                if breaker.state == "half-open":
                    high = mid
                    breaker.record_failure()  # re-open, re-jitter? no: reset
                    return mid
                low = mid
            return high

        spans = []
        for _ in range(2):
            clock = _FakeClock()
            breaker = self._breaker(clock, jitter=0.5)
            for _ in range(4):
                breaker.record_failure()
            # jitter in [0, 0.5] of the 1s timeout, seeded: both runs land
            # on the same open duration.
            clock.now = 1.5001
            spans.append(breaker.state)
        assert spans[0] == spans[1]

    def test_settings_validation(self):
        with pytest.raises(QuestError):
            BreakerSettings(window=0)
        with pytest.raises(QuestError):
            BreakerSettings(failure_threshold=0.0)
        with pytest.raises(QuestError):
            BreakerSettings(reset_timeout_s=0.0)
        with pytest.raises(QuestError):
            BreakerSettings(jitter=1.5)


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


# -- storage chaos: breaker trip, fallback parity, recovery -------------------


def _fast_breaker(**changes):
    settings = dict(
        window=8,
        min_calls=4,
        failure_threshold=0.5,
        reset_timeout_s=0.05,
        half_open_probes=1,
        jitter=0.0,
    )
    settings.update(changes)
    return CircuitBreaker("sqlite:chaos", BreakerSettings(**settings), seed=0)


def _fast_retry():
    return RetryPolicy(attempts=2, base_delay_s=0.001, max_delay_s=0.002, seed=1)


class TestStorageChaos:
    def test_sqlite_failures_open_the_breaker(self, mini_db):
        breaker = _fast_breaker()
        backend = SQLiteBackend.from_database(
            mini_db, breaker=breaker, retry=_fast_retry()
        )
        plan = FaultPlan(seed=7).inject(
            "storage.query",
            kind="error",
            rate=1.0,
            error=sqlite3.OperationalError,
        )
        with faults.injected(plan):
            for _ in range(3):
                with pytest.raises(ExecutionError):
                    backend.attribute_scores("kubrick")
        assert breaker.state == "open"
        snapshot = breaker.snapshot()
        assert snapshot["failures"] >= 4

    def test_transient_flake_is_retried_to_success(self, mini_db):
        breaker = _fast_breaker()
        backend = SQLiteBackend.from_database(
            mini_db, breaker=breaker, retry=_fast_retry()
        )
        # One injected failure, then the dependency is healthy again: the
        # in-call retry absorbs it and the caller never sees an error.
        plan = FaultPlan(seed=7).inject(
            "storage.query",
            kind="error",
            rate=1.0,
            times=1,
            error=sqlite3.OperationalError,
        )
        with faults.injected(plan):
            scores = backend.attribute_scores("kubrick")
        assert scores  # the retry got the real answer
        assert breaker.state == "closed"

    def test_half_open_recovery_closes_the_breaker(self, mini_db):
        breaker = _fast_breaker()
        backend = SQLiteBackend.from_database(
            mini_db, breaker=breaker, retry=_fast_retry()
        )
        plan = FaultPlan(seed=7).inject(
            "storage.query",
            kind="error",
            rate=1.0,
            times=6,
            error=sqlite3.OperationalError,
        )
        with faults.injected(plan):
            for _ in range(3):
                with pytest.raises(ExecutionError):
                    backend.attribute_scores("kubrick")
            assert breaker.state == "open"
            time.sleep(0.06)  # the reset timeout elapses
            assert breaker.state == "half-open"
            # The dependency healed (times=6 exhausted): the next
            # mandatory read succeeds and closes the circuit.
            scores = backend.attribute_scores("kubrick")
        assert scores
        assert breaker.state == "closed"

    def test_open_breaker_rankings_identical_to_reference(self, mini_db):
        # Trip the breaker, pin it open for the whole test, and prove the
        # engine still answers — identically to the pure-Python reference
        # kernels — because the breaker records and reports, never refuses.
        breaker = _fast_breaker(min_calls=1, window=4, reset_timeout_s=600.0)
        breaker.record_failure()
        assert breaker.state == "open"
        backend = SQLiteBackend.from_database(mini_db, breaker=breaker)
        degraded = Quest(FullAccessWrapper(backend))
        reference = Quest(FullAccessWrapper(MemoryBackend(mini_db)))
        for query in (_QUERY, "scott scifi", "kubrick horror 1980"):
            got = degraded.search_context(query=query)
            with reference_kernels():
                want = reference.search_context(query=query)
            assert _ranking(got) == _ranking(want), query
            assert not got.trace.degraded  # answers are full, not partial
        assert breaker.state == "open"  # successes alone must not close it


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
        backend = SQLiteBackend.from_database(
            mini_db, breaker=_fast_breaker(), retry=_fast_retry()
        )
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

        backend = SQLiteBackend.from_database(
            mini_db, breaker=_fast_breaker(), retry=_fast_retry()
        )
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
