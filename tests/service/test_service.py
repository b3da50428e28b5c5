"""Unit tests for the serving tier building blocks and ``QuestService``."""

import dataclasses
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiSourceQuest, Quest
from repro.errors import ExecutionError, QuestError, ServiceOverloadedError
from repro.pipeline.context import SearchTrace
from repro.service import (
    AdmissionController,
    QuestService,
    ServiceSettings,
    SingleFlight,
)
from repro.service.metrics import ServiceMetrics
from repro.wrapper import HiddenSourceWrapper

from tests.oracle import TwoCacheServiceReference


class FakeClock:
    """A hand-advanced monotonic clock for TTL/metrics determinism."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSingleFlight:
    def test_sequential_calls_do_not_share(self):
        flights = SingleFlight()
        value, shared = flights.do("key", lambda: 1)
        assert (value, shared) == (1, False)
        value, shared = flights.do("key", lambda: 2)
        # The first flight completed; reuse-across-time is the cache's job.
        assert (value, shared) == (2, False)
        assert flights.in_flight() == 0

    def test_concurrent_callers_share_one_computation(self):
        flights = SingleFlight()
        calls = []
        release = threading.Event()
        entered = threading.Event()

        def compute():
            calls.append(1)
            entered.set()
            release.wait(5)
            return "answer"

        results = []

        def leader():
            results.append(flights.do("key", compute))

        def follower():
            entered.wait(5)
            results.append(flights.do("key", lambda: "wrong"))

        threads = [threading.Thread(target=leader)] + [
            threading.Thread(target=follower) for _ in range(3)
        ]
        threads[0].start()
        entered.wait(5)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)  # let followers reach the wait
        release.set()
        for thread in threads:
            thread.join(5)
        assert len(calls) == 1
        assert sorted(shared for _v, shared in results) == [False, True, True, True]
        assert all(value == "answer" for value, _s in results)

    def test_waiting_gauge_counts_parked_followers(self):
        flights = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            release.wait(5)
            return "answer"

        leader = threading.Thread(target=lambda: flights.do("key", compute))
        leader.start()
        entered.wait(5)
        follower = threading.Thread(target=lambda: flights.do("key", lambda: 0))
        follower.start()
        deadline = time.monotonic() + 5
        while flights.waiting() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert flights.waiting() == 1
        release.set()
        leader.join(5)
        follower.join(5)
        assert flights.waiting() == 0
        assert flights.in_flight() == 0

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        outcomes = []

        def explode():
            entered.set()
            release.wait(5)
            raise ValueError("boom")

        def leader():
            try:
                flights.do("key", explode)
            except ValueError as error:
                outcomes.append(("leader", str(error)))

        def follower():
            entered.wait(5)
            try:
                flights.do("key", lambda: "wrong")
            except ValueError as error:
                outcomes.append(("follower", str(error)))

        threads = [
            threading.Thread(target=leader),
            threading.Thread(target=follower),
        ]
        threads[0].start()
        entered.wait(5)
        threads[1].start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(5)
        assert sorted(outcomes) == [("follower", "boom"), ("leader", "boom")]


class TestAdmissionController:
    def test_sheds_beyond_house_limit(self):
        admission = AdmissionController(max_concurrent=1, max_queue=0)
        with admission.admit():
            assert admission.admitted == 1
            with pytest.raises(ServiceOverloadedError):
                with admission.admit():
                    pass  # pragma: no cover
        assert admission.admitted == 0
        with admission.admit():  # slots are released after the body
            pass

    def test_queue_slots_absorb_waiters(self):
        admission = AdmissionController(max_concurrent=1, max_queue=1)
        inside = threading.Event()
        release = threading.Event()
        done = []

        def holder():
            with admission.admit():
                inside.set()
                release.wait(5)

        def waiter():
            with admission.admit():
                done.append(1)

        hold = threading.Thread(target=holder)
        hold.start()
        inside.wait(5)
        wait = threading.Thread(target=waiter)
        wait.start()
        deadline = time.monotonic() + 5
        while admission.admitted < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        # One executing + one queued = house full; the next is shed.
        with pytest.raises(ServiceOverloadedError):
            with admission.admit():
                pass  # pragma: no cover
        release.set()
        hold.join(5)
        wait.join(5)
        assert done == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0, max_queue=1)
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=1, max_queue=-1)


class TestServiceMetrics:
    def test_quantiles_and_counters(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        for latency in (0.010, 0.020, 0.030, 0.040, 0.100):
            metrics.record_request()
            metrics.record_completion(latency, executed=True)
        snapshot = metrics.snapshot(in_flight=2)
        assert snapshot.requests == 5
        assert snapshot.completed == 5
        assert snapshot.executed == 5
        assert snapshot.in_flight == 2
        assert snapshot.p50_latency_s == pytest.approx(0.030)
        assert snapshot.p95_latency_s == pytest.approx(0.100)
        assert "p95" in snapshot.summary()

    def test_qps_over_recent_window(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        for _ in range(10):
            metrics.record_completion(0.001)
            clock.advance(0.5)
        # 10 completions over the 4.5s span between first and "now".
        assert metrics.snapshot().qps == pytest.approx(10 / 5.0, rel=0.2)

    def test_old_completions_age_out_of_qps(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record_completion(0.001)
        clock.advance(120.0)  # far past the 60s window
        assert metrics.snapshot().qps == 0.0

    def test_lone_completion_reports_sane_qps(self):
        # Regression: a snapshot right after one completion used to
        # divide by a microsecond span and report millions of qps.
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record_completion(0.001)
        assert metrics.snapshot().qps <= 1.0


class TestQuestService:
    def test_default_k_comes_from_engine_settings(self, mini_engine):
        service = QuestService(mini_engine)
        response = service.search("kubrick movies")
        assert response.k == mini_engine.settings.k
        assert response.keywords == ("kubrick", "movies")

    def test_service_settings_k_overrides_engine(self, mini_engine):
        service = QuestService(mini_engine, ServiceSettings(k=2))
        assert service.search("kubrick movies").k == 2

    def test_per_call_k_keys_the_cache_separately(self, mini_engine):
        service = QuestService(mini_engine)
        first = service.search("kubrick movies", k=3)
        other_k = service.search("kubrick movies", k=5)
        assert other_k.source == "engine"  # different k, different key
        again = service.search("kubrick movies", k=3)
        assert again.cached
        assert list(again.explanations) == list(first.explanations)

    def test_normalised_queries_share_a_cache_entry(self, mini_engine):
        service = QuestService(mini_engine)
        service.search("Kubrick   Movies")
        assert service.search("kubrick movies").cached

    def test_unusable_query_raises_and_counts_error(self, mini_engine):
        service = QuestService(mini_engine)
        with pytest.raises(QuestError):
            service.search("???")
        assert service.metrics().errors == 1

    def test_settings_validated_as_quest_errors(self):
        for bad in (
            {"k": 0},
            {"max_concurrent": 0},
            {"max_queue": -1},
            {"result_ttl_s": 0.0},
            {"result_cache_size": 0},
            {"metrics_window": 0},
        ):
            with pytest.raises(QuestError):
                ServiceSettings(**bad)

    def test_settings_have_seven_fields(self):
        assert [f.name for f in dataclasses.fields(ServiceSettings)] == [
            "k",
            "max_concurrent",
            "max_queue",
            "result_ttl_s",
            "result_cache_size",
            "metrics_window",
            "stale_ttl_s",
        ]

    def test_non_positive_k_rejected(self, mini_engine):
        service = QuestService(mini_engine)
        with pytest.raises(QuestError):
            service.search("kubrick movies", k=0)
        with pytest.raises(QuestError):
            service.search("kubrick movies", k=-3)
        assert service.metrics().errors == 2

    def test_feedback_model_swap_invalidates_cached_results(self, mini_engine):
        from repro.hmm import HiddenMarkovModel

        service = QuestService(mini_engine)
        service.search("kubrick movies")
        assert service.search("kubrick movies").cached
        mini_engine.set_feedback_model(HiddenMarkovModel.uniform(mini_engine.states))
        assert service.search("kubrick movies").source == "engine"

    def test_settings_reassignment_invalidates_cached_results(self, mini_engine):
        service = QuestService(mini_engine)
        service.search("kubrick movies")
        assert service.search("kubrick movies").cached
        mini_engine.settings = mini_engine.settings.updated(candidate_factor=4)
        assert service.search("kubrick movies").source == "engine"

    def test_explicit_invalidate_drops_cached_results(self, mini_engine):
        service = QuestService(mini_engine)
        service.search("kubrick movies")
        assert service.search("kubrick movies").cached
        service.invalidate()
        assert service.search("kubrick movies").source == "engine"

    def test_ttl_expiry_forces_recompute(self, mini_engine):
        clock = FakeClock()
        service = QuestService(
            mini_engine, ServiceSettings(result_ttl_s=5.0), clock=clock
        )
        service.search("kubrick movies")
        clock.advance(1.0)
        assert service.search("kubrick movies").cached
        clock.advance(10.0)
        assert service.search("kubrick movies").source == "engine"

    def test_ignorance_mutation_invalidates_multisource_cache(self, mini_db):
        # Regression: per-source ignorance is a documented knob that
        # changes merged rankings; reassigning it must move the version
        # so the serving tier's cached results become unreachable.
        engines = {
            "hidden": Quest(HiddenSourceWrapper(mini_db.schema, remote_db=mini_db))
        }
        multi = MultiSourceQuest(engines)
        service = QuestService(multi)
        service.search("kubrick movies")
        assert service.search("kubrick movies").cached
        multi.ignorance["hidden"] = 0.9
        assert service.search("kubrick movies").source == "engine"

    def test_multisource_engine_serves_without_traces(self, mini_db):
        engines = {
            "hidden": Quest(HiddenSourceWrapper(mini_db.schema, remote_db=mini_db))
        }
        multi = MultiSourceQuest(engines)
        service = QuestService(multi)
        response = service.search("kubrick movies")
        assert response.trace is None
        assert list(response.explanations) == multi.search("kubrick movies")
        assert service.search("kubrick movies").cached

    def test_shed_counted_once_for_a_coalesced_burst(self, mini_engine):
        # One admission refusal shared by a leader and its parked
        # followers must count as ONE shed, not fan-in + 1.
        from contextlib import contextmanager

        service = QuestService(
            mini_engine,
            ServiceSettings(max_concurrent=1, max_queue=0),
        )
        ready = threading.Event()

        @contextmanager
        def refusing_admit():
            ready.wait(5)  # park the leader until the followers joined
            raise ServiceOverloadedError("house full")
            yield  # pragma: no cover

        service._admission.admit = refusing_admit
        outcomes = []

        def request():
            try:
                service.search("kubrick movies")
            except ServiceOverloadedError:
                outcomes.append("shed")

        threads = [threading.Thread(target=request) for _ in range(4)]
        threads[0].start()
        deadline = time.monotonic() + 5
        while not service._flights.in_flight() and time.monotonic() < deadline:
            time.sleep(0.01)
        for thread in threads[1:]:
            thread.start()
        while service._flights.waiting() < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        ready.set()
        for thread in threads:
            thread.join(5)
        assert outcomes == ["shed"] * 4  # everyone saw the refusal
        snapshot = service.metrics()
        assert snapshot.shed == 1  # but admission refused exactly once
        assert snapshot.requests == 4

    def test_results_match_direct_engine_search(self, mini_engine):
        service = QuestService(mini_engine)
        assert list(service.search("kubrick movies").explanations) == (
            mini_engine.search("kubrick movies")
        )


# -- the one ranking cache against its two-cache twin --------------------------


class _ScriptedEngine:
    """A stand-in engine: rankings are a pure function of the request and
    the version, storage failure and deadline degradation are switches."""

    def __init__(self):
        self.version = 0
        self.failing = False
        self.degrade_next = False

    def search_context(self, keywords, k):
        if self.failing:
            raise ExecutionError("scripted storage failure")
        degraded, self.degrade_next = self.degrade_next, False
        explanations = [
            (tuple(keywords), self.version, rank) for rank in range(k - degraded)
        ]
        trace = SearchTrace(
            query=" ".join(keywords), keywords=tuple(keywords), degraded=degraded
        )
        return SimpleNamespace(explanations=explanations, trace=trace)


_RESULT_TTL_S = 5.0
_STALE_TTL_S = 20.0
_CACHE_SIZE = 8
#: Fewer distinct (keywords, k) slots than the cache holds.
_QUERIES = ("alpha", "beta gamma")

_search = st.tuples(
    st.just("search"), st.sampled_from(_QUERIES), st.sampled_from((1, 2))
)
#: Clock steps landing inside, exactly on and past both TTLs.
_advance = st.tuples(
    st.just("advance"),
    st.sampled_from((0.5, 2.5, _RESULT_TTL_S, 7.5, _STALE_TTL_S, 30.0)),
)
_steps = st.one_of(
    # Searches weigh three times, and clock steps twice, any other step,
    # so most traces revisit a key after a bump, an invalidation, a
    # failure or a TTL boundary.
    _search,
    _search,
    _search,
    _advance,
    _advance,
    st.tuples(st.just("bump")),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("storage"), st.booleans()),
    st.tuples(st.just("degrade")),
)


class TestRankingCacheTwin:
    @settings(max_examples=500, deadline=None)
    @given(trace=st.lists(_steps, min_size=3, max_size=40))
    def test_one_cache_answers_like_the_two_cache_twin(self, trace):
        clock = FakeClock()
        engine = _ScriptedEngine()
        service = QuestService(
            engine,
            ServiceSettings(
                result_ttl_s=_RESULT_TTL_S,
                stale_ttl_s=_STALE_TTL_S,
                result_cache_size=_CACHE_SIZE,
            ),
            clock=clock,
        )
        twin = TwoCacheServiceReference(
            engine, _RESULT_TTL_S, _STALE_TTL_S, clock
        )
        for step in trace:
            kind = step[0]
            if kind == "bump":
                engine.version += 1
            elif kind == "invalidate":
                service.invalidate()
                twin.invalidate()
            elif kind == "storage":
                engine.failing = step[1]
            elif kind == "degrade":
                engine.degrade_next = True
            elif kind == "advance":
                clock.advance(step[1])
            else:
                _, query, k = step
                # The twin's run sees the degradation flag the service's
                # run saw; an armed flag lasts for this request only.
                degrade = engine.degrade_next
                try:
                    response = service.search(query, k=k)
                    got = (
                        response.source,
                        response.explanations,
                        response.stale_revision,
                    )
                except ExecutionError:
                    got = "storage error"
                engine.degrade_next = degrade
                try:
                    want = twin.search(query, k)
                except ExecutionError:
                    want = "storage error"
                engine.degrade_next = False
                assert got == want, (step, trace)
