"""The preforked fleet: shared-artifact workers, supervision, drain.

These tests fork real worker processes over the mini database. The
factory closures are inherited through ``fork`` (no pickling), so the
parent builds the database and the ``.npz`` artifact once and every
worker re-attaches it memory-mapped — exactly the production shape.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.core import Quest
from repro.db.fulltext import FullTextIndex
from repro.service import (
    PreforkServer,
    PreforkSettings,
    QuestService,
    ServiceError,
    shared_artifact_engine,
)
from repro.service.http import explanation_payload
from repro.service.prefork import fetch_json
from repro.storage.memory import MemoryBackend
from repro.wrapper.full import FullAccessWrapper

_QUERY = "kubrick movies"
_SEARCH_PATH = "/search?q=kubrick%20movies&k=3"
#: Distinct queries the fleet storm replays, each with answers on mini_db.
_STORM_QUERIES = (
    "kubrick movies",
    "scott scifi",
    "varda documentary",
    "shining kubrick",
    "horror movies",
    "blade runner",
)
#: Concurrent client threads of the fleet storm.
_STORM_CLIENTS = 8


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


class _SlowQuest(Quest):
    """An engine whose searches take long enough to race a shutdown."""

    def search(self, query, k=None):
        time.sleep(1.0)
        return super().search(query, k=k)


class TestPreforkSettings:
    def test_validation(self):
        with pytest.raises(ServiceError):
            PreforkSettings(workers=0)
        with pytest.raises(ServiceError):
            PreforkSettings(max_restarts=-1)

    def test_port_requires_start(self):
        prepare, factory = object, object
        server = PreforkServer(factory)
        with pytest.raises(ServiceError):
            server.port


class TestFleet:
    def test_workers_serve_rank_identical_to_in_process(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        server = PreforkServer(
            factory,
            settings=PreforkSettings(workers=2),
            prepare=prepare,
        )
        with server:
            assert artifact.exists()  # parent built it before forking
            server.wait_ready()
            pids = set()
            rankings = {}

            def both_workers_answered():
                # Workers share one listener and the kernel may hand a
                # run of accepts to the same one: ask until both answered.
                status, body = fetch_json("127.0.0.1", server.port, _SEARCH_PATH)
                assert status == 200, body
                pids.add(body["pid"])
                rankings[body["pid"]] = body["results"]
                return len(pids) == 2

            _wait_for(both_workers_answered, message="both workers to answer")
            assert pids == set(server.worker_pids())

            # The same factory in-process (mmap'd artifact) must produce
            # the same ranking, serialised bit for bit.
            engine = factory()
            assert engine.wrapper.backend.fulltext.mmapped
            in_process = QuestService(engine)
            expected = {
                text: json.loads(
                    json.dumps(
                        explanation_payload(
                            in_process.search(text, k=3).explanations
                        )
                    )
                )
                for text in _STORM_QUERIES
            }
            assert all(expected.values())  # a vacuous identity proves nothing
            for pid, results in rankings.items():
                assert results == expected[_QUERY], f"worker {pid} ranking differs"

            # A storm: concurrent clients each replay every distinct
            # query; every answer is a 200, byte-equal to the in-process
            # service.
            failures = []
            answered = []
            lock = threading.Lock()

            def client():
                for text in _STORM_QUERIES:
                    path = "/search?q=" + text.replace(" ", "%20") + "&k=3"
                    status, body = fetch_json("127.0.0.1", server.port, path)
                    with lock:
                        answered.append(text)
                        if status != 200:
                            failures.append(f"{text!r}: {status} {body}")
                        elif body["results"] != expected[text]:
                            failures.append(
                                f"{text!r}: worker {body['pid']} ranking differs"
                            )

            clients = [
                threading.Thread(target=client) for _ in range(_STORM_CLIENTS)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(60)
            assert failures == []
            # No client died or hung part way: every request was answered.
            assert len(answered) == _STORM_CLIENTS * len(_STORM_QUERIES)

    def test_crashed_worker_is_replaced_and_serves_again(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        server = PreforkServer(
            factory,
            settings=PreforkSettings(workers=2, max_restarts=3),
            prepare=prepare,
        )
        with server:
            server.wait_ready()
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_for(
                lambda: victim not in server.worker_pids()
                and len(server.worker_pids()) == 2,
                message="supervisor to replace the crashed worker",
            )
            assert server.restarts == 1
            assert not server.failed
            server.wait_ready()
            status, body = fetch_json("127.0.0.1", server.port, _SEARCH_PATH)
            assert status == 200
            assert body["results"]

    def test_restart_budget_exhaustion_fails_the_fleet(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        server = PreforkServer(
            factory,
            settings=PreforkSettings(workers=1, max_restarts=0),
            prepare=prepare,
        )
        try:
            server.start()
            server.wait_ready()
            os.kill(server.worker_pids()[0], signal.SIGKILL)
            _wait_for(
                lambda: server.failed, message="restart budget exhaustion"
            )
            _wait_for(
                lambda: not server.worker_pids(), message="fleet teardown"
            )
        finally:
            server.stop()

    def test_sigterm_drain_completes_in_flight_request(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, _ = shared_artifact_engine(mini_db, artifact)

        def slow_factory():
            index = FullTextIndex.load_or_build(
                artifact, mini_db, mmap=True, readonly=True
            )
            return _SlowQuest(
                FullAccessWrapper(MemoryBackend(mini_db, fulltext=index))
            )

        server = PreforkServer(
            slow_factory,
            settings=PreforkSettings(workers=1, drain_timeout_s=10.0),
            prepare=prepare,
        )
        server.start()
        try:
            server.wait_ready()
            results = {}

            def client():
                results["response"] = fetch_json(
                    "127.0.0.1", server.port, _SEARCH_PATH, timeout=30.0
                )

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.3)  # the 1s search is now in flight
            server.stop(graceful=True)
            thread.join(20)
            status, body = results["response"]
            assert status == 200
            assert body["results"]
            assert not server.worker_pids()
        finally:
            server.stop()

    def test_stop_is_idempotent_and_start_twice_rejected(self, mini_db, tmp_path):
        artifact = tmp_path / "mini.npz"
        prepare, factory = shared_artifact_engine(mini_db, artifact)
        server = PreforkServer(
            factory, settings=PreforkSettings(workers=1), prepare=prepare
        )
        server.start()
        with pytest.raises(ServiceError):
            server.start()
        server.stop()
        server.stop()
        assert not server.worker_pids()
