"""Thread-stress suite: one shared engine, many concurrent callers.

Covers the concurrency contract of this PR's tentpole: N threads x M
queries on a single shared ``Quest`` must produce rankings identical to
sequential runs, every returned context must carry its *own* exact trace
(no shared-counter attribution, no cross-talk), and the serving tier
(``QuestService``) must keep that identity while demonstrably coalescing
identical in-flight requests — plus the satellite fixes: a forked child
of a busy engine not deadlocking on a lock a sibling thread held at the
fork, and the ``FeedbackStore`` staying safe under concurrent
append/iterate.
"""

import json
import os
import select
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import MultiSourceQuest, Quest
from repro.datasets import mondial
from repro.errors import ServiceOverloadedError
from repro.feedback import FeedbackStore
from repro.pipeline.runner import SearchPipeline
from repro.service import QuestService, ServiceSettings
from repro.service.http import explanation_payload
from repro.wrapper import FullAccessWrapper, HiddenSourceWrapper

from tests.conftest import backend_for

THREADS = 8


@pytest.fixture(scope="module")
def stress_db():
    return mondial.generate(countries=10, seed=31)


@pytest.fixture(scope="module")
def stress_texts(stress_db):
    workload = mondial.workload(stress_db, queries_per_kind=2, seed=31)
    return [query.text for query in workload]


@pytest.fixture()
def stress_engine(stress_db):
    return Quest(FullAccessWrapper(backend_for(stress_db)))


def _run_threaded(fn, jobs, threads=THREADS):
    """Run ``fn(job)`` for every job across *threads*, preserving order."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


class SlowPipeline(SearchPipeline):
    """A pipeline whose runs take a guaranteed-visible amount of time,
    so tests can arrange requests to overlap deterministically."""

    def __init__(self, delay=0.2):
        super().__init__()
        self.delay = delay

    def run(self, engine, query=None, keywords=None, k=None):
        time.sleep(self.delay)
        return super().run(engine, query=query, keywords=keywords, k=k)


class TestConcurrentEngineIdentity:
    def test_threads_match_sequential_rankings(self, stress_engine, stress_texts):
        expected = {
            text: stress_engine.search(text) for text in stress_texts
        }
        # Every thread replays the whole workload against the shared
        # engine: N threads x M queries, all interleaving on the shared
        # emission/Steiner caches.
        jobs = [text for text in stress_texts for _ in range(THREADS)]
        results = _run_threaded(
            lambda text: (text, stress_engine.search(text)), jobs
        )
        for text, ranked in results:
            assert ranked == expected[text]

    def test_contexts_carry_own_results_without_crosstalk(
        self, stress_engine, stress_texts
    ):
        jobs = [text for text in stress_texts for _ in range(THREADS)]
        contexts = _run_threaded(
            lambda text: stress_engine.search_context(text), jobs
        )
        for text, context in zip(jobs, contexts):
            assert context.query == text
            assert context.trace.query == text
            assert tuple(context.keywords) == context.trace.keywords
            # Every run traced its own full stage sequence.
            assert [r.stage for r in context.trace.stages] == [
                stage.name for stage in stress_engine.pipeline.stages
            ]

    def test_warm_trace_deltas_exact_under_concurrency(
        self, stress_engine, stress_texts
    ):
        stress_engine.search_many(stress_texts)  # prime both caches
        expected = {}
        for text in stress_texts:
            trace = stress_engine.search_context(text).trace
            expected[text] = (
                (trace.emission_cache.hits, trace.emission_cache.misses),
                (trace.steiner_cache.hits, trace.steiner_cache.misses),
                (trace.count_cache.hits, trace.count_cache.misses),
            )
        jobs = [text for text in stress_texts for _ in range(THREADS)]
        contexts = _run_threaded(
            lambda text: stress_engine.search_context(text), jobs
        )
        for text, context in zip(jobs, contexts):
            emission_expected, steiner_expected, count_expected = expected[text]
            trace = context.trace
            assert (
                trace.emission_cache.hits,
                trace.emission_cache.misses,
            ) == emission_expected
            assert (
                trace.steiner_cache.hits,
                trace.steiner_cache.misses,
            ) == steiner_expected
            assert (trace.count_cache.hits, trace.count_cache.misses) == count_expected
            # Warm caches: a concurrent run must never observe a miss.
            assert trace.emission_cache.misses == 0
            assert trace.steiner_cache.misses == 0
            assert trace.count_cache.misses == 0

    def test_cold_attribution_partitions_global_counters(
        self, stress_engine, stress_texts
    ):
        """Per-trace deltas must sum exactly to the global counter motion.

        The old snapshot-subtraction scheme double-counted interleaved
        lookups (overlapping before/after windows); the context-local
        recorder partitions them."""
        emissions_before = stress_engine.wrapper.emission_cache_stats
        steiner_before = stress_engine.schema_graph.steiner_cache.stats
        counts_before = stress_engine.wrapper.backend.count_cache.stats
        contexts = _run_threaded(
            lambda text: stress_engine.search_context(text), stress_texts
        )
        emissions = stress_engine.wrapper.emission_cache_stats.since(
            emissions_before
        )
        steiner = stress_engine.schema_graph.steiner_cache.stats.since(
            steiner_before
        )
        counts = stress_engine.wrapper.backend.count_cache.stats.since(counts_before)
        traces = [context.trace for context in contexts]
        assert sum(t.count_cache.hits for t in traces) == counts.hits
        assert sum(t.count_cache.misses for t in traces) == counts.misses
        assert sum(t.emission_cache.hits for t in traces) == emissions.hits
        assert sum(t.emission_cache.misses for t in traces) == emissions.misses
        assert sum(t.steiner_cache.hits for t in traces) == steiner.hits
        assert sum(t.steiner_cache.misses for t in traces) == steiner.misses

    def test_multisource_threads_match_serial(self, stress_db, stress_texts):
        engines = {
            "full": Quest(FullAccessWrapper(backend_for(stress_db))),
            "hidden": Quest(
                HiddenSourceWrapper(stress_db.schema, remote_db=stress_db)
            ),
        }
        multi = MultiSourceQuest(engines)
        expected = {text: multi.search(text) for text in stress_texts[:4]}
        jobs = [text for text in stress_texts[:4] for _ in range(4)]
        results = _run_threaded(lambda text: (text, multi.search(text)), jobs)
        for text, ranked in results:
            assert ranked == expected[text]


class TestServiceConcurrency:
    def test_service_matches_sequential_engine_with_own_traces(
        self, stress_db, stress_texts
    ):
        engine = Quest(FullAccessWrapper(backend_for(stress_db)))
        expected = {text: engine.search(text) for text in stress_texts}
        service = QuestService(engine)
        jobs = [text for text in stress_texts for _ in range(THREADS)]
        responses = _run_threaded(lambda text: service.search(text), jobs)
        for text, response in zip(jobs, responses):
            assert list(response.explanations) == expected[text]
            assert response.trace is not None
            assert response.trace.query == text
        snapshot = service.metrics()
        assert snapshot.requests == len(jobs)
        assert snapshot.completed == len(jobs)
        # The serving tiers absorbed the bulk of the duplicate traffic.
        # (No hard per-query bound: a request preempted between its
        # cache miss and its flight join can legally lead a second
        # computation for an already-answered key.)
        assert snapshot.executed < len(jobs)
        assert snapshot.coalesced + snapshot.cache_hits == len(jobs) - snapshot.executed

    def test_coalescing_collapses_identical_inflight_queries(self, stress_db):
        engine = Quest(
            FullAccessWrapper(backend_for(stress_db)), pipeline=SlowPipeline()
        )
        service = QuestService(engine)
        barrier = threading.Barrier(THREADS)

        def storm(_index):
            barrier.wait()
            return service.search("capital ruritania")

        responses = _run_threaded(storm, range(THREADS))
        rankings = {tuple(r.explanations) for r in responses}
        assert len(rankings) == 1
        snapshot = service.metrics()
        assert snapshot.requests == THREADS
        # All followers entered while the leader's 200ms run was in
        # flight: exactly one pipeline execution served all of them.
        assert snapshot.executed == 1
        assert snapshot.coalesced == THREADS - 1
        assert sum(1 for r in responses if r.source == "engine") == 1
        assert sum(1 for r in responses if r.coalesced) == THREADS - 1

    def test_admission_control_sheds_fast(self, stress_db, stress_texts):
        engine = Quest(
            FullAccessWrapper(backend_for(stress_db)), pipeline=SlowPipeline()
        )
        service = QuestService(
            engine,
            ServiceSettings(max_concurrent=1, max_queue=0),
        )
        barrier = threading.Barrier(6)
        # Distinct texts: no request can coalesce with or hit the cache
        # entry of another, so every one faces admission alone.
        texts = stress_texts[:6]
        assert len(set(texts)) == 6

        def request(text):
            barrier.wait()
            try:
                return ("ok", service.search(text))
            except ServiceOverloadedError:
                return ("shed", None)

        outcomes = _run_threaded(request, texts, threads=6)
        shed = sum(1 for kind, _r in outcomes if kind == "shed")
        completed = sum(1 for kind, _r in outcomes if kind == "ok")
        assert shed > 0  # the house was full, someone was refused
        assert completed >= 1  # the slot holder answered
        assert shed + completed == 6
        snapshot = service.metrics()
        assert snapshot.shed == shed
        assert snapshot.completed == completed

    def test_cached_results_invalidated_by_engine_mutation(self, stress_db):
        engine = Quest(FullAccessWrapper(backend_for(stress_db)))
        service = QuestService(engine)
        first = service.search("capital ruritania")
        assert service.search("capital ruritania").cached
        version_before = engine.version
        engine.schema_graph.reset_derived_caches()
        assert engine.version != version_before
        refreshed = service.search("capital ruritania")
        assert refreshed.source == "engine"  # the stale key is unreachable
        assert list(refreshed.explanations) == list(first.explanations)


#: Upper bound on one forked child's ``search_many``; a child that
#: inherited a held lock never finishes and is killed at this deadline.
FORK_TIMEOUT_S = 60.0


def _rankings(results):
    return json.dumps([explanation_payload(tuple(r)) for r in results])


def _search_many_in_forked_child(engine, texts):
    """``search_many`` run in a plain ``os.fork`` child of this process.

    The child works on the engine it inherited, writes its rankings to a
    pipe and ``os._exit``s. The parent fails the test (killing the child)
    if no answer arrives within :data:`FORK_TIMEOUT_S`.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(_rankings(engine.search_many(texts)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + FORK_TIMEOUT_S
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                pytest.fail(f"forked search_many gave no answer in {FORK_TIMEOUT_S}s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, wait_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(wait_status) == 0
    return b"".join(chunks).decode()


def _held_by_sibling(lock):
    """Start a thread that holds *lock*; returns the event that frees it."""
    held = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            held.set()
            release.wait(120)

    sibling = threading.Thread(target=holder, daemon=True)
    sibling.start()
    assert held.wait(5)
    return release, sibling


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedBatchContention:
    """A fork while a sibling thread holds an engine lock must not leave
    the child deadlocked: :mod:`repro.forksafe` re-creates every
    registered lock in the child (the posture ``PreforkServer`` relies
    on when it forks workers off a live parent)."""

    def test_forked_batch_survives_sibling_holding_a_cache_lock(
        self, stress_engine, stress_texts
    ):
        # Warm first, so the child's batch reads the emission cache.
        expected = _rankings(stress_engine.search_many(stress_texts[:4]))
        release, sibling = _held_by_sibling(
            stress_engine.wrapper.emission_cache._lock
        )
        try:
            rankings = _search_many_in_forked_child(stress_engine, stress_texts[:4])
        finally:
            release.set()
            sibling.join(5)
        assert rankings == expected

    def test_forked_batch_survives_sibling_inside_the_fulltext_lock(
        self, stress_db, stress_texts
    ):
        # Every columnar read enters FullTextIndex._lock, so a COLD
        # engine's forked child must not inherit it held. An RLock is
        # reentrant for the forking thread, so the holder has to be a
        # sibling thread for this to bite.
        from repro.errors import QuestError

        expected = _rankings(
            Quest(FullAccessWrapper(backend_for(stress_db))).search_many(
                stress_texts[:4]
            )
        )
        cold = Quest(FullAccessWrapper(backend_for(stress_db)))
        try:
            lock = cold.wrapper.fulltext._lock
        except QuestError:
            pytest.skip("backend has no in-process full-text index")
        release, sibling = _held_by_sibling(lock)
        try:
            rankings = _search_many_in_forked_child(cold, stress_texts[:4])
        finally:
            release.set()
            sibling.join(5)
        assert rankings == expected


class TestFeedbackStoreConcurrency:
    def test_concurrent_append_and_snapshot_iteration(self, mini_engine):
        configuration = mini_engine.forward(["kubrick"], 1)[0]
        store = FeedbackStore()
        stop = threading.Event()
        errors = []

        def writer():
            for index in range(200):
                if index % 3:
                    store.add_validation(["kubrick"], configuration)
                else:
                    store.add_rejection(["kubrick"], configuration)

        def reader():
            while not stop.is_set():
                try:
                    seen = list(store)
                    assert store.positive_count() + store.negative_count() >= 0
                    for record in seen:
                        assert record.keywords == ("kubrick",)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert len(store) == 4 * 200
        assert store.positive_count() + store.negative_count() == len(store)


class TestMutateWhileSearch:
    """Live mutation racing concurrent readers (the durability tier's S3
    contract): every concurrent observation of a mutated batch is all-or-
    nothing — pre-state or post-state, never a torn half-applied batch —
    and the index the readers raced (answering from its dicts after each
    write) is bit-identical to a sequential rebuild once the dust
    settles."""

    BATCH = 6

    def _mutating_backend(self):
        from repro.datasets import mixed, mondial
        from repro.storage import create_backend

        db = mondial.generate(countries=8, seed=31)
        backend = create_backend("memory", db)
        ops = [
            op
            for op in mixed.generate_ops(
                db, 120, profile="oltp", seed=13, batch=self.BATCH
            )
            if op.kind != "search"
        ]
        return backend, ops

    def test_readers_see_whole_batches_or_nothing(self):
        backend, ops = self._mutating_backend()
        adds = [op for op in ops if op.kind == "add"]

        # Every op applies atomically, so the only legal observations of
        # a probe's live row count are the counts holding *between* ops.
        # (Generated keys embed their probe — "probeSxN-counter" — so a
        # delete's effect can be attributed without extra bookkeeping.)
        valid = {op.probe: {0} for op in adds}
        live = {op.probe: 0 for op in adds}
        for op in ops:
            if op.kind == "add":
                live[op.probe] = self.BATCH
                valid[op.probe].add(self.BATCH)
            else:
                for key in op.keys:
                    probe = str(key[0]).rsplit("-", 1)[0]
                    live[probe] -= 1
                    valid[probe].add(live[probe])
        torn = []
        stop = threading.Event()

        def reader():
            # Positions are immune to global-statistics drift (unlike
            # scores), so a partially applied batch is directly visible:
            # a count no between-ops state ever held.
            while not stop.is_set():
                for op in adds:
                    for ref, _score in backend.fulltext.attribute_scores(
                        op.probe
                    ).items():
                        count = len(
                            backend.fulltext.matching_row_positions(
                                op.probe, ref
                            )
                        )
                        if count not in valid[op.probe]:
                            torn.append((op.probe, str(ref), count))

        readers = [threading.Thread(target=reader) for _ in range(THREADS)]
        for thread in readers:
            thread.start()
        from repro.datasets import mixed

        for op in ops:
            mixed.apply_op(backend, op)
        stop.set()
        for thread in readers:
            thread.join()
        assert not torn, f"torn batch observations: {torn[:5]}"

    def test_engine_searches_never_fail_and_settle_bit_identically(self):
        from repro.datasets import mixed, mondial
        from repro.db.fulltext import FullTextIndex
        from repro.storage import create_backend

        backend, ops = self._mutating_backend()
        engine = Quest(FullAccessWrapper(backend))
        probes = [op.probe for op in ops if op.kind == "add"]
        errors = []
        stop = threading.Event()

        def searcher():
            while not stop.is_set():
                for probe in probes:
                    try:
                        engine.search(probe, 3)
                    except BaseException as error:  # pragma: no cover
                        errors.append(error)
                        return

        searchers = [threading.Thread(target=searcher) for _ in range(THREADS)]
        for thread in searchers:
            thread.start()
        for op in ops:
            mixed.apply_op(backend, op)
        stop.set()
        for thread in searchers:
            thread.join()
        assert not errors

        # Settled state: the index the readers raced (write delta in the
        # dicts + tombstones) scores bit-identically to a from-scratch
        # sequential rebuild of the same mutation history.
        db = mondial.generate(countries=8, seed=31)
        sequential = create_backend("memory", db)
        for op in ops:
            mixed.apply_op(sequential, op)
        rebuilt = FullTextIndex(sequential.database)
        for probe in probes:
            assert backend.fulltext.attribute_scores(
                probe
            ) == rebuilt.attribute_scores(probe)
