"""The three benchmark workloads; each run executes in a fresh interpreter.

``run.py`` starts this script once per measured run, so peak memory and
every cache start from the same state whatever ran before. Two modes:

``--expect``
    computes a workload's expected answers (the in-process engine's
    ``explanation_payload`` per gold query, plus gold hit flags) and
    writes them to ``--out``. It runs in its own process, before and
    outside every timed phase.
(default)
    runs the workload and prints one JSON object as the last line of
    standard output: the end-to-end figures, exact work counts, and, with
    ``--trace 1``, the per-layer figures from :mod:`spans`.

Workloads (closed loop, one client, never more busy processes than two):

``serve_http``
    read-only keyword search over HTTP: mondial (``countries=100``, all
    81 gold queries), memory backend behind ``shared_artifact_engine``, a
    ``PreforkServer`` with one worker mmap-attached to the artifact, one
    keep-alive ``http.client`` connection.
``sqlite_explain``
    ``Quest.search_context`` in process over a file-backed, WAL-mode
    ``SQLiteBackend`` holding dblp at ``papers=1000``; each gold query
    once, no repeats, no service and no HTTP.
``write_oltp``
    fixed rounds of ``repro.datasets.mixed.generate_ops(profile="oltp")``
    replayed through ``mixed.apply_op`` on a memory backend with a
    fsync-per-append ``MutationJournal`` on disk, a fresh read of every
    add's probe, then timed ``storage.recovery.recover()`` onto fresh
    backends.

Work per run is fixed by ``--seconds`` through a nominal rate per
workload, never by a clock, so a seed always replays the same ops.
Every time a run reports is at the reference CPU speed of :mod:`speed`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlencode

from sequences import explain_sequence, serve_sequence, split_budget, stream_rng
from speed import REFERENCE_S, SpeedClock, pin_to_one_cpu, scaled
from spans import (
    SpanRecorder,
    count_trace,
    instrument_engine,
    patch_kernels,
    traced_pipeline,
)

#: Answers per query, on the wire and in process.
K = 10
#: Set-ups per run for the in-process workloads (``setup_s`` is their median).
SETUP_REPEATS = 3
#: Recoveries per write_oltp round (``recover_s`` is their median).
RECOVER_REPEATS = 3

#: Per workload: the facts the benchmark records about it, and the
#: nominal ops per second (measured on a 2-cpu x86 host) that turn
#: ``--seconds`` into a fixed op budget.
WORKLOADS: dict[str, dict[str, Any]] = {
    "serve_http": {
        "dataset": "mondial countries=100 (650 rows), 81 gold queries",
        "pool": "81 distinct queries vs result cache 256, emission 2048, Steiner 512",
        "client": "closed loop, 1 keep-alive connection, PreforkServer workers=1",
        "ops_per_s": 36.0,
        "round_ops": 108,
    },
    "sqlite_explain": {
        "dataset": "dblp papers=1000 (5216 rows) in file-backed WAL SQLite",
        "pool": "111 distinct gold queries, each once; no result cache in the path",
        "client": "closed loop, in process, Quest.search_context",
        "ops_per_s": 6.0,
        "round_ops": 111,
    },
    "write_oltp": {
        "dataset": "mondial countries=25, memory backend + MutationJournal on disk",
        "pool": "fixed generate_ops oltp 40/60 rounds (seeds 1, 2, ...) over a 200-token pool",
        "client": "closed loop, in process; journal fsyncs every append",
        "ops_per_s": 24.0,
        "round_ops": 50,
    },
}

# -- small helpers -----------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-quantile of *values* (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def _budget(workload: str, seconds: float) -> list[int]:
    spec = WORKLOADS[workload]
    budget = max(1, round(seconds * spec["ops_per_s"]))
    return split_budget(budget, spec["round_ops"])


# -- expected answers ----------------------------------------------------------


def _gold(workload: str) -> tuple[Any, Any]:
    """The workload's dataset and gold queries (fixed scale and seeds)."""
    from repro.datasets import dblp, mondial

    if workload == "serve_http":
        db = mondial.generate(countries=100)
        return db, mondial.workload(db, queries_per_kind=100)
    db = dblp.generate(papers=1000)
    return db, dblp.workload(db, queries_per_kind=30)


def expect(workload: str, workdir: Path) -> dict[str, Any]:
    """The in-process engine's answers to every gold query of *workload*.

    ``serve_http`` answers come from an engine built by the same
    ``shared_artifact_engine`` factory the workers use; ``sqlite_explain``
    answers come from the memory backend, so the SQLite path must match
    the in-memory one bit for bit.
    """
    from repro import FullAccessWrapper, Quest
    from repro.service.http import explanation_payload
    from repro.service.prefork import shared_artifact_engine
    from repro.storage.memory import MemoryBackend

    db, gold = _gold(workload)
    if workload == "serve_http":
        prepare, factory = shared_artifact_engine(db, workdir / "expect.npz")
        prepare()
        engine = factory()
    else:
        engine = Quest(FullAccessWrapper(MemoryBackend(db)))
    texts, results, hits = [], [], []
    for query in gold:
        explanations = tuple(engine.search(query.text, K))
        texts.append(query.text)
        results.append(json.dumps(explanation_payload(explanations)))
        hits.append([e.query.matches(query.gold_query) for e in explanations])
    return {"texts": texts, "results": results, "hits": hits}


def _quality(hit_lists: list[list[bool]]) -> tuple[float, float]:
    """(MRR, success@10) over per-query hit lists."""
    if not hit_lists:
        return 0.0, 0.0
    reciprocal, success = 0.0, 0.0
    for hits in hit_lists:
        for rank, hit in enumerate(hits, start=1):
            if hit:
                reciprocal += 1.0 / rank
                break
        success += 1.0 if any(hits[:10]) else 0.0
    return reciprocal / len(hit_lists), success / len(hit_lists)


# -- per-layer figures from spans ----------------------------------------------


def layer_figures(recorder: SpanRecorder) -> dict[str, float]:
    """Self times per engine run and exact counts of the engine layers."""
    self_times = recorder.self_times()
    counts = recorder.counts
    runs = max(1, counts["pipeline.runs"])

    def per_run_ms(name: str) -> float:
        return sum(self_times.get(name, ())) * 1e3 / runs

    figures = {
        "pipeline.forward_ms": per_run_ms("pipeline.forward"),
        "pipeline.backward_ms": per_run_ms("pipeline.backward"),
        "pipeline.combine_ms": per_run_ms("pipeline.combine"),
        "pipeline.explain_ms": per_run_ms("pipeline.explain"),
        "wrapper.emission_ms": per_run_ms("wrapper.emission"),
        "hmm.decode_ms": per_run_ms("hmm.decode"),
        "steiner.topk_ms": per_run_ms("steiner.topk"),
        "dst.combine_ms": per_run_ms("dst.combine"),
        "storage.result_count_ms": per_run_ms("storage.result_count"),
        "storage.emission_block_ms": per_run_ms("storage.emission_block"),
        "dst.combine_calls": float(len(self_times.get("dst.combine", ()))),
        "storage.result_count_calls": float(len(self_times.get("storage.result_count", ()))),
    }
    for name in (
        "pipeline.configurations",
        "pipeline.interpretations",
        "pipeline.ranked",
        "pipeline.explanations",
        "wrapper.emission_cache_hits",
        "wrapper.emission_cache_misses",
        "steiner.cache_hits",
        "steiner.cache_misses",
        "steiner.plan_cache_hits",
        "steiner.plan_cache_misses",
    ):
        figures[name] = float(counts[name])
    examined = counts["pipeline.explain_examined"]
    figures["pipeline.explain_kept_ratio"] = (
        counts["pipeline.explanations"] / examined if examined else 0.0
    )
    return figures


class Timer:
    """Wall-clock intervals by kind, plus the run's speed probes.

    Call :meth:`tick` before each op and :meth:`probe` around set-ups and
    at the end of a phase; :func:`_result` scales every time by the
    run's speed factor (see :mod:`speed`).
    """

    def __init__(self) -> None:
        self.speed = SpeedClock()
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self.tick = self.speed.tick
        self.probe = self.speed.probe

    def add(self, kind: str, start: float, end: float) -> None:
        self.intervals.setdefault(kind, []).append((start, end))

    def count(self, kind: str) -> int:
        return len(self.intervals.get(kind, ()))

    def seconds(self, kind: str) -> list[float]:
        return [end - start for start, end in self.intervals.get(kind, ())]

    def ms(self, *kinds: str) -> list[float]:
        return [s * 1e3 for kind in kinds for s in self.seconds(kind)]

    def figures(
        self, op_kinds: tuple[str, ...], search_kinds: tuple[str, ...], rss: float
    ) -> dict[str, float]:
        """The end-to-end metrics, wall clock: set-up median, ops per
        second of op time, search percentiles, and the given peak RSS."""
        op_ms = self.ms(*op_kinds)
        search_ms = self.ms(*search_kinds)
        return {
            "setup_s": median(self.seconds("setup")),
            "throughput_ops_s": len(op_ms) / (sum(op_ms) / 1e3),
            "search_p50_ms": quantile(search_ms, 0.5),
            "search_p90_ms": quantile(search_ms, 0.9),
            "peak_rss_mb": rss,
        }


def _result(
    tally: Tally,
    timer: Timer,
    e2e: tuple[tuple[str, ...], tuple[str, ...], float],
    extra: dict[str, float],
    setup: dict[str, float],
    counts: Counter,
    samples: dict[str, int],
    layers: dict[str, float] | None,
    spans: SpanRecorder,
) -> dict[str, Any]:
    """One run's result; every time in it is at the reference CPU speed."""
    raw = timer.figures(*e2e)
    factor = timer.speed.factor()
    probes = timer.speed.probes
    return {
        "spans": spans.export() if layers is not None else None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "e2e": scaled(raw, factor),
        "raw_e2e": raw,
        "speed": {
            "factor": factor,
            "probe_median_ms": median(probes) * 1e3,
            "probe_min_ms": min(probes) * 1e3,
            "reference_ms": REFERENCE_S * 1e3,
            "probes": len(probes),
        },
        "extra": scaled({**extra, "failed_ratio": tally.failed / max(1, tally.attempted)}, factor),
        "setup": scaled(setup, factor),
        "counts": {name: int(value) for name, value in sorted(counts.items())},
        "samples": samples,
        "layers": scaled(layers, factor) if layers is not None else None,
    }


# -- serve_http ---------------------------------------------------------------


def _traced_factory(
    factory: Callable[[], Any], dump_path: Path, request_fd: int, reply_fd: int
) -> Callable[[], Any]:
    """Wrap a worker's engine factory so the worker records spans.

    Runs in the forked worker: it instruments the engine and
    ``QuestService.search`` (one root span per HTTP search, numbered in
    arrival order), and starts an idle thread that writes the worker's
    spans to *dump_path* once the client writes a byte to *request_fd*,
    after the last request and before the fleet drains.
    """
    from repro.service.service import QuestService

    def build() -> Any:
        recorder = SpanRecorder()
        patch_kernels(recorder)
        engine = factory()
        engine.pipeline = traced_pipeline(recorder)
        instrument_engine(recorder, engine)
        search = QuestService.search
        ordinals = itertools.count()

        def traced_search(self: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.span("service.search", request=next(ordinals)):
                return search(self, *args, **kwargs)

        QuestService.search = traced_search

        def dump_on_request() -> None:
            os.read(request_fd, 1)
            dump_path.write_text(json.dumps(recorder.export()))
            os.write(reply_fd, b"1")

        threading.Thread(target=dump_on_request, daemon=True).start()
        return engine

    return build


def _collect_worker_spans(request_w: int, reply_r: int, dump_path: Path) -> SpanRecorder:
    os.write(request_w, b"1")
    ready, _, _ = select.select([reply_r], [], [], 60.0)
    if not ready:
        raise RuntimeError("the serving worker did not write its spans within 60 s")
    os.read(reply_r, 1)
    return SpanRecorder.from_export(json.loads(dump_path.read_text()))


def run_serve_http(
    seed: int, seconds: float, traced: bool, expected: dict[str, Any], workdir: Path
) -> dict[str, Any]:
    """Rounds of (fresh fleet set-up, then the seeded request stream).

    Every round forks a fresh one-worker fleet over a freshly prepared
    artifact, so each round starts from cold caches and times its own
    set-up; ``setup_s`` and ``peak_rss_mb`` (the worker's) are medians
    over rounds.
    """
    import http.client

    from repro.datasets import mondial
    from repro.service.prefork import PreforkServer, PreforkSettings, shared_artifact_engine
    from repro.service.service import ServiceSettings

    texts = expected["texts"]
    tally = Tally()
    timer = Timer()
    rss: list[float] = []
    overhead: list[float] = []
    hit_lists: list[list[bool]] = []
    response_bytes = 0
    counts: Counter = Counter()
    worker_spans = SpanRecorder()
    for round_index, count in enumerate(_budget("serve_http", seconds)):
        sequence = serve_sequence(len(texts), stream_rng(seed, "serve_http", round_index), count)
        artifact = workdir / f"serve-{round_index}.npz"
        dump_path = workdir / f"spans-worker-{round_index}.json"
        timer.probe()
        start = time.perf_counter()
        db = mondial.generate(countries=100)
        loaded = time.perf_counter()
        prepare, factory = shared_artifact_engine(db, artifact)
        prepare()
        indexed = time.perf_counter()
        pipes: list[int] = []
        if traced:
            request_r, request_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pipes = [request_r, request_w, reply_r, reply_w]
            factory = _traced_factory(factory, dump_path, request_r, reply_w)
        server = PreforkServer(
            factory,
            ServiceSettings(),
            settings=PreforkSettings(workers=1, drain_timeout_s=5.0, stop_timeout_s=10.0),
        )
        try:
            server.start()
            server.wait_ready(timeout=120.0)
            ready = time.perf_counter()
            timer.probe()
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120.0)
            try:
                replies = []
                for index, _repeat in sequence:
                    timer.tick()
                    sent = time.perf_counter()
                    connection.request("GET", "/search?" + urlencode({"q": texts[index], "k": K}))
                    response = connection.getresponse()
                    body = response.read()
                    replies.append((index, response.status, body, sent, time.perf_counter()))
                timer.probe()
                connection.request("GET", "/metrics")
                metrics = json.loads(connection.getresponse().read())["service"]
            finally:
                connection.close()
            rss.append(peak_rss_mb(server.worker_pids()[0]))
            if traced:
                worker = _collect_worker_spans(request_w, reply_r, dump_path)
        finally:
            server.stop()
            for fd in pipes:
                os.close(fd)
            artifact.unlink(missing_ok=True)
        timer.add("setup", start, ready)
        timer.add("setup.load", start, loaded)
        timer.add("setup.index", loaded, indexed)
        timer.add("setup.fleet", indexed, ready)
        for name in ("cache_hits", "cache_misses", "executed", "coalesced", "shed"):
            counts[f"service.{name}"] += int(metrics[name])
        if traced:
            service_s = worker.durations("service.search")
            overhead.extend(
                (done - sent - service) * 1e3
                for (_, _, _, sent, done), service in zip(replies, service_s)
            )
            worker_spans.absorb(worker, round_index)

        seen: set[int] = set()
        for index, status, body, sent, done in replies:
            timer.add("search", sent, done)
            if status != 200:
                tally.fail(f"{texts[index]!r}: HTTP {status}")
                continue
            payload = json.loads(body)
            results = json.dumps(payload["results"])
            response_bytes += len(results.encode("utf-8"))
            if payload["source"] == "cache":
                timer.add("cached", sent, done)
            matched = results == expected["results"][index]
            if index not in seen:
                seen.add(index)
                hit_lists.append(expected["hits"][index] if matched else [])
            if matched:
                tally.ok()
            else:
                tally.fail(f"{texts[index]!r}: ranking differs from the in-process engine")

    counts["http.response_bytes"] = response_bytes
    layers = None
    if traced:
        layers = layer_figures(worker_spans)
        counts.update(worker_spans.counts)
        hits, misses = counts["service.cache_hits"], counts["service.cache_misses"]
        service_ms = [s * 1e3 for s in worker_spans.durations("service.search")]
        layers.update(
            {
                "http.overhead_p50_ms": quantile(overhead, 0.5),
                "http.response_bytes": float(response_bytes),
                "service.search_p50_ms": quantile(service_ms, 0.5),
                "service.cache_hit_ratio": hits / max(1, hits + misses),
            }
        )
        for name in ("cache_hits", "cache_misses", "executed", "coalesced", "shed"):
            layers[f"service.{name}"] = float(counts[f"service.{name}"])
    mrr, success = _quality(hit_lists)
    return _result(
        tally,
        timer,
        e2e=(("search",), ("search",), median(rss)),
        extra={
            "cached_p50_ms": quantile(timer.ms("cached"), 0.5),
            "mrr": mrr,
            "success_at_10": success,
        },
        setup={
            f"{kind}_s": median(timer.seconds(kind))
            for kind in ("setup.load", "setup.index", "setup.fleet")
        },
        counts=counts,
        samples={
            "searches": timer.count("search"),
            "cached": timer.count("cached"),
            "rounds": len(rss),
        },
        layers=layers,
        spans=worker_spans,
    )


# -- sqlite_explain -------------------------------------------------------------


def run_sqlite_explain(
    seed: int, seconds: float, traced: bool, expected: dict[str, Any], workdir: Path
) -> dict[str, Any]:
    """Set up the SQLite engine several times, then one pass of gold queries.

    A pass sends each gold query at most once, so the op budget is capped
    at the gold pool; answers must equal the in-memory engine's.
    """
    from repro import FullAccessWrapper, Quest
    from repro.datasets import dblp
    from repro.errors import QuestError
    from repro.service.http import explanation_payload
    from repro.storage.sqlite import SQLiteBackend

    texts = expected["texts"]
    recorder = SpanRecorder()
    if traced:
        patch_kernels(recorder)
    timer = Timer()
    engine = None
    for repeat in range(SETUP_REPEATS):
        if engine is not None:
            engine.wrapper.backend.close()
        path = workdir / f"explain-{repeat}.db"
        for stale in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
            stale.unlink(missing_ok=True)
        timer.probe()
        start = time.perf_counter()
        db = dblp.generate(papers=1000)
        backend = SQLiteBackend.from_database(db, path=str(path))
        loaded = time.perf_counter()
        engine = Quest(
            FullAccessWrapper(backend),
            pipeline=traced_pipeline(recorder) if traced else None,
        )
        ready = time.perf_counter()
        timer.probe()
        timer.add("setup", start, ready)
        timer.add("setup.load", start, loaded)
        timer.add("setup.index", loaded, ready)
    if traced:
        instrument_engine(recorder, engine)
    budget = sum(_budget("sqlite_explain", seconds))
    sequence = explain_sequence(
        len(texts), stream_rng(seed, "sqlite_explain"), min(budget, len(texts))
    )
    answers: list[tuple[int, Any]] = []
    for index in sequence:
        timer.tick()
        sent = time.perf_counter()
        try:
            answer: Any = engine.search_context(query=texts[index], k=K)
        except QuestError as exc:
            answer = exc
        timer.add("search", sent, time.perf_counter())
        answers.append((index, answer))
    timer.probe()
    rss = peak_rss_mb()
    engine.wrapper.backend.close()

    tally = Tally()
    counts: Counter = recorder.counts
    hit_lists = []
    for index, answer in answers:
        if isinstance(answer, QuestError):
            tally.fail(f"{texts[index]!r}: rejected: {answer}")
            hit_lists.append([])
            continue
        if not traced:
            count_trace(counts, answer.trace)
        results = json.dumps(explanation_payload(tuple(answer.explanations)))
        if results == expected["results"][index]:
            tally.ok()
            hit_lists.append(expected["hits"][index])
        else:
            tally.fail(f"{texts[index]!r}: SQLite ranking differs from the memory backend")
            hit_lists.append([])
    layers = layer_figures(recorder) if traced else None
    mrr, success = _quality(hit_lists)
    return _result(
        tally,
        timer,
        e2e=(("search",), ("search",), rss),
        extra={"mrr": mrr, "success_at_10": success},
        setup={f"{kind}_s": median(timer.seconds(kind)) for kind in ("setup.load", "setup.index")},
        counts=counts,
        samples={"searches": len(answers), "setups": SETUP_REPEATS},
        layers=layers,
        spans=recorder,
    )


# -- write_oltp -------------------------------------------------------------------


def _probe_answered(context: Any, probe: str) -> bool:
    """Whether a fresh read found the probe's just-acknowledged rows."""
    return any(
        probe in explanation.sql and (explanation.result_count or 0) > 0
        for explanation in context.explanations
    )


def oltp_rounds(seed_db: Any, seed: int, seconds: float) -> list[tuple[int, list[Any]]]:
    """The write_oltp rounds of one run, as ``(round index, ops)``.

    Round *i* replays ``generate_ops(profile="oltp", seed=i + 1)``: the
    op content is fixed, as the gold-query sets of the other workloads
    are, because the cost of a random 1-3 keyword query spans two orders
    of magnitude and a run's few hundred of them cannot average that
    out. ``seed`` orders the rounds and deals each round's search queries
    over its search slots, so writes, and the reads between them,
    interleave differently per seed.
    """
    from dataclasses import replace

    from repro.datasets import mixed

    rng = stream_rng(seed, "write_oltp")
    rounds = list(enumerate(_budget("write_oltp", seconds)))
    rng.shuffle(rounds)
    result = []
    for index, count in rounds:
        ops = mixed.generate_ops(seed_db, count, profile="oltp", seed=index + 1)
        queries = [op.query for op in ops if op.kind == "search"]
        rng.shuffle(queries)
        dealt = iter(queries)
        ops = [replace(op, query=next(dealt)) if op.kind == "search" else op for op in ops]
        result.append((index, ops))
    return result


def run_write_oltp(seed: int, seconds: float, traced: bool, workdir: Path) -> dict[str, Any]:
    """Rounds of (fresh journaled backend, oltp ops, recoveries).

    Each round replays its ops (see :func:`oltp_rounds`) on a fresh
    backend, then recovers the round's journal onto fresh backends and
    checks the recovered rows equal the writer's.
    """
    from repro import FullAccessWrapper, Quest
    from repro.datasets import mixed, mondial
    from repro.errors import QuestError
    from repro.journal import MutationJournal
    from repro.storage.memory import MemoryBackend
    from repro.storage.recovery import recover

    seed_db = mondial.generate(countries=25)
    tables = [table.name for table in seed_db.tables]
    recorder = SpanRecorder()
    if traced:
        patch_kernels(recorder)
    tally = Tally()
    counts: Counter = recorder.counts
    timer = Timer()
    open_ms: list[float] = []
    rounds = 0
    journal_bytes = journaled_rows = delta_max = 0
    for round_index, ops in oltp_rounds(seed_db, seed, seconds):
        journal_path = workdir / f"oltp-{round_index}.journal"
        journal_path.unlink(missing_ok=True)
        rounds += 1
        timer.probe()
        start = time.perf_counter()
        backend = MemoryBackend(mondial.generate(countries=25))
        loaded = time.perf_counter()
        backend.fulltext.warm()
        journal = MutationJournal(journal_path)
        backend.attach_journal(journal)
        engine = Quest(
            FullAccessWrapper(backend),
            pipeline=traced_pipeline(recorder) if traced else None,
        )
        ready = time.perf_counter()
        timer.probe()
        timer.add("setup", start, ready)
        timer.add("setup.load", start, loaded)
        timer.add("setup.index", loaded, ready)
        if traced:
            instrument_engine(recorder, engine)
            backend.add_rows = recorder.wrap(backend.add_rows, "storage.write")
            backend.delete_rows = recorder.wrap(backend.delete_rows, "storage.write")
            journal.append = recorder.wrap(journal.append, "journal.append")
            backend.fulltext.merge = recorder.wrap(backend.fulltext.merge, "fulltext.merge")

        outcomes: list[tuple[str, Any, Any]] = []
        for op in ops:
            timer.tick()
            sent = time.perf_counter()
            if op.kind == "search":
                try:
                    answer: Any = engine.search_context(query=op.query)
                except QuestError as exc:
                    answer = exc
                timer.add("search", sent, time.perf_counter())
                outcomes.append(("search", op, answer))
                continue
            try:
                mixed.apply_op(backend, op)
                answer = None
            except QuestError as exc:
                answer = exc
            timer.add("write", sent, time.perf_counter())
            outcomes.append(("write", op, answer))
            if traced:
                delta_max = max(delta_max, len(backend.fulltext.delta_terms))
            if op.kind == "add":
                timer.tick()
                sent = time.perf_counter()
                try:
                    answer = engine.search_context(query=op.probe)
                except QuestError as exc:
                    answer = exc
                timer.add("fresh", sent, time.perf_counter())
                outcomes.append(("probe", op, answer))
        timer.probe()
        journal.close()
        counts["journal.appends"] += len(journal)
        journal_bytes += journal_path.stat().st_size
        journaled_rows += sum(len(op.rows) + len(op.keys) for op in mixed.write_ops(ops))

        for kind, op, answer in outcomes:
            if isinstance(answer, QuestError):
                tally.fail(f"{kind} {op.query or op.probe or op.table!r}: {answer}")
            elif kind == "probe" and not _probe_answered(answer, op.probe):
                tally.fail(f"probe {op.probe!r} not readable after its ack")
            else:
                if kind != "write" and not traced:
                    count_trace(counts, answer.trace)
                tally.ok()

        written = [backend.table_rows(table) for table in tables]
        for _ in range(RECOVER_REPEATS):
            fresh = MemoryBackend(mondial.generate(countries=25))
            if traced:
                opened = time.perf_counter()
                MutationJournal(journal_path, readonly=True).close()
                open_ms.append((time.perf_counter() - opened) * 1e3)
            timer.probe()
            started = time.perf_counter()
            report = recover(fresh, journal_path)
            fresh.fulltext.warm()
            timer.add("recover", started, time.perf_counter())
            timer.probe()
            fresh.journal.close()
            counts["recovery.replayed_ops"] += report.replayed
            if fresh.applied_seq != backend.applied_seq or (
                [fresh.table_rows(table) for table in tables] != written
            ):
                tally.fail(f"round {round_index}: recovered state differs from the writer's")
            else:
                tally.ok()
        journal_path.unlink()
    rss = peak_rss_mb()

    layers = None
    if traced:
        layers = layer_figures(recorder)
        self_times = recorder.self_times()
        appends = [d * 1e3 for d in recorder.durations("journal.append")]
        merges = recorder.durations("fulltext.merge")
        layers.update(
            {
                "storage.apply_ms": median([s * 1e3 for s in self_times.get("storage.write", [])]),
                "journal.append_p50_ms": quantile(appends, 0.5),
                "journal.append_p90_ms": quantile(appends, 0.9),
                "journal.appends": float(counts["journal.appends"]),
                "journal.bytes_per_row": journal_bytes / max(1, journaled_rows),
                "fulltext.delta_terms_max": float(delta_max),
                "fulltext.merges": float(len(merges)),
                "fulltext.merge_ms": median([m * 1e3 for m in merges]),
                "recovery.journal_open_ms": median(open_ms),
                "recovery.replayed_ops": float(counts["recovery.replayed_ops"]),
            }
        )
    write_ms = timer.ms("write")
    return _result(
        tally,
        timer,
        e2e=(("search", "write", "fresh"), ("search", "fresh"), rss),
        extra={
            "write_p50_ms": quantile(write_ms, 0.5),
            "write_p90_ms": quantile(write_ms, 0.9),
            "fresh_read_p50_ms": quantile(timer.ms("fresh"), 0.5),
            "recover_s": median(timer.seconds("recover")),
        },
        setup={f"{kind}_s": median(timer.seconds(kind)) for kind in ("setup.load", "setup.index")},
        counts=counts,
        samples={
            "searches": timer.count("search"),
            "writes": timer.count("write"),
            "fresh_reads": timer.count("fresh"),
            "rounds": rounds,
        },
        layers=layers,
        spans=recorder,
    )


# -- entry point ------------------------------------------------------------------


def _filesystem_of(path: Path) -> str:
    """The type of the filesystem holding *path*, from ``/proc/mounts``."""
    best, kind = "", "unknown"
    resolved = str(path.resolve())
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount_point = fields[1]
            if resolved.startswith(mount_point) and len(mount_point) > len(best):
                best, kind = mount_point, fields[2]
    return kind


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--expected", type=Path, help="expected answers (from --expect)")
    parser.add_argument("--expect", action="store_true", help="compute expected answers")
    parser.add_argument("--out", type=Path, help="where --expect writes its answers")
    parser.add_argument("--spans-out", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    cpu = pin_to_one_cpu()
    if args.expect:
        args.out.write_text(json.dumps(expect(args.workload, args.workdir)))
        return 0
    traced = bool(args.trace)
    if args.workload == "write_oltp":
        result = run_write_oltp(args.seed, args.seconds, traced, args.workdir)
    else:
        expected = json.loads(args.expected.read_text())
        runner = run_serve_http if args.workload == "serve_http" else run_sqlite_explain
        result = runner(args.seed, args.seconds, traced, expected, args.workdir)
    spans = result.pop("spans")
    if spans is not None and args.spans_out is not None:
        args.spans_out.write_text(json.dumps(spans))
    spec = WORKLOADS[args.workload]
    result["record"] = {
        "dataset": spec["dataset"],
        "pool": spec["pool"],
        "client": spec["client"],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "workdir_fs": _filesystem_of(args.workdir),
        "journal_flush": "fsync on every append",
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
