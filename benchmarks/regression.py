"""Perf-regression harness over the E7 micro workload.

Measures two groups per kernel set (``optimized`` = the engine's numeric
kernels; ``reference`` = their retained pure-Python twins, called directly
or, for whole searches, swapped in by ``tests.oracle.reference_kernels()``):

* **kernels** — List Viterbi (five keywords, and two: the shape of
  every serve_http gold query), top-k Steiner and Dempster combination
  micro-timings. These are storage-backend
  independent (they never touch the backend) and are measured once.
* **cold_search** — a fresh-engine ``search_many`` pass per storage
  backend (cold caches), with per-stage trace seconds and cache counters.
* **index** — full-text index lifecycle on a larger (imdb) instance:
  ``fulltext-build`` (cold build + seal, against the dict build alone)
  and ``fulltext-load`` (re-attaching the saved ``.npz`` artifact, the
  warm-process path that skips the build, against the same load plus
  rebuilding the dicts from the snapshot). The artifact lives in
  ``--index-cache`` so CI can carry it between steps/runs. The snapshot's
  gain is on the load path: the build is the dict build plus the seal
  into arrays, so ``fulltext-build`` reads below 1x (about 0.8x; on 2
  vCPUs the seal took 1.4 of 5.3 ms on mondial ``countries=25`` and 7.9
  of 51.6 ms on imdb ``movies=1000``). The entry keeps that cost from
  growing; it does not measure a speedup.
* **service_throughput** — concurrent ``QuestService`` wall time over a
  warm engine: N threads replaying the workload with request coalescing
  off vs on (an identical-query storm collapses onto one pipeline run
  per burst), with requests/sec and the service's own executed/coalesced
  counters. Recorded, not gated (thread scheduling is runner-dependent).
* **serving_storm** — the preforked HTTP tier end to end: per-worker
  warm-start seconds (mmap-attaching the shared ``.npz`` artifact vs
  rebuilding the index from rows), then a real fleet (2 forked workers
  on one listener) stormed by concurrent HTTP clients. Requests/sec,
  p50/p95 latency and the single-process in-memory baseline are
  recorded, not gated (1-cpu runners serve slower than they search);
  the two hard claims are that every storm response is 200 and that
  every worker's ranking is byte-identical to a direct in-process
  ``QuestService`` call over the same artifact.

``--profile`` skips measurement entirely and prints a per-stage cProfile
(top 20 by cumulative time) of one cold query instead, so the next
optimisation PR starts from data.

Each entry records raw runs, the median and the minimum. Results land in
``BENCH_e7.json``; the committed file is the baseline. With a baseline
present the harness compares and exits non-zero on regression:

* default (absolute) mode: an entry regresses when its current optimized
  *median* exceeds the baseline optimized median by more than
  ``--tolerance`` (meaningful when baseline and current run on the same
  machine);
* ``--relative`` mode (CI): an entry regresses when its *speedup ratio*
  falls more than ``--tolerance`` below the baseline's ratio. Stages
  whose code is the same in both kernel sets (``SHARED_CODE_STAGES``:
  the explain stage) are reported but not gated here. The ratio
  is the **median of the paired per-repetition ratios** (reference run
  *i* / optimized run *i*; the two kernel sets are timed back to back in
  every repetition). Ratios cancel machine speed, pairing cancels load
  transients that hit both sides of one repetition, and the median
  ignores a single lucky or unlucky repetition — which a ratio of
  per-side minimums does not: one fast optimized repetition alone moved
  it by a third. A missing baseline is a hard error here, never a green
  gate.

It also reports the headline number the optimisation PR is accountable
for: the cold-query speedup of the current optimized run against the
committed baseline's reference kernels.

The paired sections (kernels, cold_search, index) are timed with the
process pinned to its lowest CPU, so both kernel sets of a pair run on the
same core; the original affinity is restored before the service and
serving sections start their threads and forked workers.

Usage::

    python benchmarks/regression.py                   # measure + compare
    python benchmarks/regression.py --update-baseline # refresh BENCH_e7.json
    python benchmarks/regression.py --smoke --relative  # CI
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pstats
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks._common import scenario  # noqa: E402
from repro.core import Quest  # noqa: E402
from repro.datasets import imdb  # noqa: E402
from repro.db import Catalog, ColumnRef  # noqa: E402
from repro.db.fulltext import FullTextIndex  # noqa: E402
from repro.dst import combine_scores, rank_hypotheses  # noqa: E402
from repro.dst.combine import dempster_combine_reference, evidence_bodies  # noqa: E402
from repro.hmm import list_viterbi, list_viterbi_reference  # noqa: E402
from repro.pipeline.context import SearchContext  # noqa: E402
from repro.steiner import (  # noqa: E402
    build_schema_graph,
    top_k_steiner_trees,
    top_k_steiner_trees_reference,
)
from repro.storage import create_backend  # noqa: E402
from repro.wrapper import FullAccessWrapper  # noqa: E402
from tests.oracle import reference_kernels  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_e7.json"
KERNELSETS = ("optimized", "reference")
#: The headline entry the ≥2x acceptance criterion is measured on.
COLD_SEARCH_ENTRY = "cold-search per-query"
#: Entries whose minimums sit below this are timer noise on CI runners;
#: they are reported but never fail the comparison.
NOISE_FLOOR_S = 0.002
#: Cold-search stages with no reference twin: both kernel sets run the
#: same code there, so the optimized/reference ratio is noise around 1x.
#: ``--relative`` reports them but does not gate them; absolute mode does.
SHARED_CODE_STAGES = frozenset({"explain"})


#: Kernel entries whose repetitions each time several alternating calls
#: per side and record the per-call mean (the paired ratio is then a
#: ratio of sums). The top-k Steiner reference side swings 30-40% with
#: the host's speed phase between runs; alternating inside a repetition
#: lets both sides sample the same phase.
KERNEL_ALTERNATIONS = {"top-k-steiner k=10": 5}


#: Scale of the index-lifecycle measurements: large enough that the
#: build-vs-load gap reflects real row counts, small enough for CI.
INDEX_SCALE = {"movies": 1000, "seed": 7}
#: Thread count of the service-throughput storm (the acceptance
#: criterion's ">= 8 concurrent callers" scenario).
SERVICE_THREADS = 8


@contextlib.contextmanager
def _pinned_to_one_cpu():
    """Pin this process to its lowest CPU; restore the affinity on exit.

    Both kernel sets of a pair then share one core's caches and clock,
    and the scheduler cannot migrate one side mid-run. Only this
    process's own affinity changes.
    """
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(original)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, original)


def _stats_of(runs: list[float]) -> dict[str, object]:
    return {"median_s": statistics.median(runs), "min_s": min(runs), "runs": runs}


def _measure_pair(
    variants: dict[str, object], repeats: int, alternations: int = 1
) -> dict[str, dict[str, object]]:
    """Interleaved timing of the kernelset variants of one entry.

    Each repetition times every variant back to back, so a load transient
    (CPU throttling, a noisy CI neighbour) hits both kernel sets alike and
    cancels out of the speedup ratio — measuring each set in its own
    contiguous block is exactly how a mid-suite slowdown poisons one side
    only. With *alternations* > 1 a repetition runs that many rounds of
    back-to-back calls and records each side's mean call time. One warmup
    per variant precedes the timed repetitions.
    """
    for fn in variants.values():
        fn()
    runs: dict[str, list[float]] = {kernelset: [] for kernelset in variants}
    for _ in range(repeats):
        totals = dict.fromkeys(variants, 0.0)
        for _round in range(alternations):
            for kernelset, fn in variants.items():
                start = time.perf_counter()
                fn()
                totals[kernelset] += time.perf_counter() - start
        for kernelset, total in totals.items():
            runs[kernelset].append(total / alternations)
    return {kernelset: _stats_of(times) for kernelset, times in runs.items()}


def _kernel_measurements(sc) -> dict[str, dict[str, object]]:
    """Per-entry ``{kernelset: callable}`` on the mondial scenario.

    Backend-independent: these never touch a storage backend (the model
    and emission matrix are built once up front).
    """
    engine = Quest(FullAccessWrapper(create_backend("memory", sc.db)))
    model = engine.apriori_model
    keywords = ["rivers", "ruritania", "cities", "language", "capital"]
    emissions = model.emission_matrix(keywords, engine.wrapper)

    graph = build_schema_graph(sc.db.schema, Catalog.from_database(sc.db))
    terminals = [
        ColumnRef("country", "name"),
        ColumnRef("river", "name"),
        ColumnRef("city", "name"),
    ]
    frames = {
        size: (
            {f"h{i}": float(i + 1) for i in range(size)},
            {f"h{i}": float(size - i) for i in range(size)},
        )
        for size in (100, 400)
    }

    def cold_topk(optimized: bool):
        graph.steiner_cache.clear()
        topk = top_k_steiner_trees if optimized else top_k_steiner_trees_reference
        topk(graph, terminals, 10)

    def variants(fn) -> dict[str, object]:
        return {
            kernelset: (lambda optimized=(kernelset == "optimized"): fn(optimized))
            for kernelset in KERNELSETS
        }

    def ds_combine(size: int, optimized: bool):
        if optimized:
            combine_scores(*frames[size], 0.3, 0.3, k=10)
        else:
            rank_hypotheses(
                dempster_combine_reference(
                    *evidence_bodies(*frames[size], 0.3, 0.3)
                ),
                10,
            )

    def decode(optimized: bool, rows):
        (list_viterbi if optimized else list_viterbi_reference)(model, rows, 30)

    return {
        "list-viterbi T=5 k=30": variants(
            lambda optimized: decode(optimized, emissions)
        ),
        # Two keywords: the shape of every serve_http gold query, where
        # the only step is the last one.
        "list-viterbi T=2 k=30": variants(
            lambda optimized: decode(optimized, emissions[:2])
        ),
        "top-k-steiner k=10": variants(cold_topk),
        "ds-combine frame=100": variants(
            lambda optimized: ds_combine(100, optimized)
        ),
        "ds-combine frame=400": variants(
            lambda optimized: ds_combine(400, optimized)
        ),
    }


def _index_measurements(repeats: int, cache_dir: Path) -> dict[str, dict[str, dict]]:
    """Index lifecycle entries: cold build+seal vs artifact load.

    Build interleaves the sealed build ("optimized") with the dict build
    alone ("reference": ``refresh`` without the seal); load interleaves
    re-attaching the ``.npz`` artifact with the same attach plus rebuilding
    the dicts from the snapshot ("reference"), the cost a dict-read index
    paid on every load. The artifact is created through ``load_or_build``,
    so a cached copy from a previous run/step is validated and reused
    rather than rebuilt.
    """
    db = imdb.generate(**INDEX_SCALE)
    rows = db.total_rows()
    artifact = cache_dir / "imdb-fulltext.npz"
    FullTextIndex.load_or_build(artifact, db)

    def build(optimized: bool):
        index = FullTextIndex(db)
        if optimized:
            index.warm()
        else:
            index.refresh()

    def load(optimized: bool):
        index = FullTextIndex.load(artifact, db)
        if not optimized:
            with index._lock:
                index._hydrate_locked()

    def variants(fn):
        return {
            kernelset: (lambda optimized=(kernelset == "optimized"): fn(optimized))
            for kernelset in KERNELSETS
        }

    entries: dict[str, dict[str, dict]] = {kernelset: {} for kernelset in KERNELSETS}
    measurements = {
        f"fulltext-build rows={rows}": variants(build),
        f"fulltext-load rows={rows}": variants(load),
    }
    for name, pair in measurements.items():
        for kernelset, stats in _measure_pair(pair, repeats).items():
            entries[kernelset][name] = stats
    return {
        kernelset: {"entries": kernel_entries}
        for kernelset, kernel_entries in entries.items()
    }


def _service_throughput(sc, repeats: int) -> dict:
    """Concurrent ``QuestService`` storm, coalescing off vs on (not gated).

    One engine, warmed over the workload first (this measures the
    serving tier, not cold cache builds). Each run fires
    ``SERVICE_THREADS`` threads through the service; every query text is
    enqueued once per thread *consecutively*, so identical requests are
    in flight together — exactly the burst shape coalescing exists for.
    The result cache stays off in both modes: with it on, every repeat
    after the first is a cache hit and nothing distinguishes the modes.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import QuestService, ServiceSettings

    texts = [q.text for q in sc.workload]
    engine = Quest(FullAccessWrapper(create_backend("memory", sc.db)))
    engine.search_many(texts)  # warm the emission/Steiner caches
    jobs = [text for text in texts for _ in range(SERVICE_THREADS)]
    report: dict[str, object] = {
        "cpus": os.cpu_count(),
        "threads": SERVICE_THREADS,
        "queries": len(texts),
        "requests_per_run": len(jobs),
    }
    medians: dict[str, float] = {}
    for mode, coalesce in (("uncoalesced", False), ("coalesced", True)):
        service = QuestService(
            engine,
            ServiceSettings(
                coalesce=coalesce,
                cache_results=False,
                max_concurrent=SERVICE_THREADS,
                max_queue=len(jobs),
            ),
        )
        runs: list[float] = []
        for _ in range(repeats):
            with ThreadPoolExecutor(max_workers=SERVICE_THREADS) as pool:
                start = time.perf_counter()
                list(pool.map(service.search, jobs))
                runs.append(time.perf_counter() - start)
        snapshot = service.metrics()
        stats = _stats_of(runs)
        medians[mode] = stats["median_s"]  # type: ignore[assignment]
        report[mode] = {
            **stats,
            "requests_per_second": len(jobs) / medians[mode],
            "executed": snapshot.executed,
            "coalesced": snapshot.coalesced,
            "shed": snapshot.shed,
        }
    report["coalesce_speedup"] = medians["uncoalesced"] / medians["coalesced"]
    return report


#: Flake probability of the degraded-mode section's storage faults, and
#: the seed that makes its schedule replayable across runs.
DEGRADED_FLAKE_RATE = 0.10
DEGRADED_FAULT_SEED = 17


def _degraded_mode(sc, repeats: int) -> dict:
    """Service throughput under a 10% storage-flake rate (not gated).

    One SQLite-backed engine (the ``storage.query`` fault point fires
    inside its SQL read path), warmed over the workload, then stormed
    twice per repeat: once healthy, once with a seeded ``FaultPlan``
    flipping 10% of storage reads into transient
    ``sqlite3.OperationalError``. The in-call retry absorbs most flakes;
    a read that exhausts its retries falls through to the revision-stale
    cache (primed by a healthy pass over every distinct query), so every
    request is still answered. Everything here is recorded, never
    gated — the section exists so the cost of running degraded shows up
    in the BENCH history, not to fail CI on a slow runner.
    """
    import sqlite3
    from concurrent.futures import ThreadPoolExecutor

    from repro import faults
    from repro.faults import FaultPlan
    from repro.service import QuestService, ServiceSettings
    from repro.storage.sqlite import SQLiteBackend

    texts = [q.text for q in sc.workload]
    backend = SQLiteBackend.from_database(sc.db)
    engine = Quest(FullAccessWrapper(backend))
    engine.search_many(texts)  # warm the emission/Steiner caches
    jobs = [text for text in texts for _ in range(SERVICE_THREADS)]
    service = QuestService(
        engine,
        ServiceSettings(
            cache_results=False,
            coalesce=False,
            max_concurrent=SERVICE_THREADS,
            max_queue=len(jobs),
        ),
    )
    for text in texts:  # prime the revision-stale tier once per query
        service.search(text)

    def answered(text: str) -> str:
        try:
            response = service.search(text)
        except Exception:
            return "failed"
        return "stale" if response.stale else "ok"

    report: dict[str, object] = {
        "cpus": os.cpu_count(),
        "threads": SERVICE_THREADS,
        "queries": len(texts),
        "requests_per_run": len(jobs),
        "flake_rate": DEGRADED_FLAKE_RATE,
        "fault_seed": DEGRADED_FAULT_SEED,
    }
    medians: dict[str, float] = {}
    for mode in ("healthy", "degraded"):
        plan = None
        if mode == "degraded":
            plan = FaultPlan(seed=DEGRADED_FAULT_SEED).inject(
                "storage.query",
                kind="error",
                rate=DEGRADED_FLAKE_RATE,
                error=sqlite3.OperationalError,
            )
        before = service.metrics()
        runs: list[float] = []
        outcomes: list[str] = []
        with faults.injected(plan) if plan is not None else _noop():
            for _ in range(repeats):
                with ThreadPoolExecutor(max_workers=SERVICE_THREADS) as pool:
                    start = time.perf_counter()
                    outcomes.extend(pool.map(answered, jobs))
                    runs.append(time.perf_counter() - start)
        after = service.metrics()
        stats = _stats_of(runs)
        medians[mode] = stats["median_s"]  # type: ignore[assignment]
        entry: dict[str, object] = {
            **stats,
            "requests_per_second": len(jobs) / medians[mode],
            "answered": outcomes.count("ok") + outcomes.count("stale"),
            "failed": outcomes.count("failed"),
            "stale_served": after.stale_served - before.stale_served,
            "errors": after.errors - before.errors,
        }
        if plan is not None:
            decisions = plan.decisions("storage.query")
            entry["storage_reads"] = len(decisions)
            entry["injected_faults"] = decisions.count("error")
        report[mode] = entry
    report["degraded_overhead"] = medians["degraded"] / medians["healthy"]
    return report


def _noop():
    import contextlib

    return contextlib.nullcontext()


#: Mixed read/write workload shape: ops per pass and generator seed.
MIXED_OPS = 80
MIXED_SEED = 11
MIXED_PROFILES = ("ecommerce", "oltp")


def _mixed_workload(repeats: int) -> dict:
    """Search latency while writers churn (the live-mutation section).

    One memory-backed engine per profile over a *private* mondial
    instance (the shared scenario database must survive this section
    unmutated), driven by :func:`repro.datasets.mixed.generate_ops` —
    a deterministic interleaving of searches, batched journaled inserts
    and batched deletes. Three latency families are recorded per
    profile: plain searches racing the writer, write applies
    (validate + journal-ack + delta-index), and **fresh reads** — a
    search for the probe keyword an ``add`` just inserted, answerable
    only by the delta layer over the sealed snapshot.

    Timings are recorded, never gated. The one hard claim (enforced by
    ``--mixed-only``) is read-your-writes: every probe is visible in
    the index the moment its batch is acknowledged.
    """
    from repro.datasets import mixed, mondial
    from repro.journal import MutationJournal

    report: dict[str, object] = {
        "ops": MIXED_OPS,
        "seed": MIXED_SEED,
        "repeats": repeats,
        "profiles": {},
        "missing_probes": 0,
    }
    missing_probes = 0
    for profile in MIXED_PROFILES:
        searches: list[float] = []
        fresh_reads: list[float] = []
        write_applies: list[float] = []
        totals: list[float] = []
        counts = {"search": 0, "add": 0, "delete": 0}
        with tempfile.TemporaryDirectory() as scratch:
            for repeat in range(repeats):
                db = mondial.generate(countries=10, seed=31)
                backend = create_backend("memory", db)
                journal = MutationJournal(
                    Path(scratch) / f"{profile}-{repeat}.journal"
                )
                backend.attach_journal(journal)
                engine = Quest(FullAccessWrapper(backend))
                ops = mixed.generate_ops(
                    db, MIXED_OPS, profile=profile, seed=MIXED_SEED
                )
                engine.search(ops[0].query or "quest", 5)  # warm caches
                pass_start = time.perf_counter()
                for op in ops:
                    if repeat == 0:
                        counts[op.kind] += 1
                    if op.kind == "search":
                        start = time.perf_counter()
                        engine.search(op.query, 5)
                        searches.append(time.perf_counter() - start)
                        continue
                    start = time.perf_counter()
                    mixed.apply_op(backend, op)
                    write_applies.append(time.perf_counter() - start)
                    if op.kind == "add":
                        start = time.perf_counter()
                        engine.search(op.probe, 5)
                        fresh_reads.append(time.perf_counter() - start)
                        # Read-your-writes: an acknowledged batch's rows
                        # are searchable immediately (delta layer).
                        if not backend.fulltext.attribute_scores(op.probe):
                            missing_probes += 1
                totals.append(time.perf_counter() - pass_start)
                journal.close()
        entry: dict[str, object] = {
            **counts,
            "total": _stats_of(totals),
            "ops_per_second": MIXED_OPS / statistics.median(totals),
        }
        if searches:
            entry["search"] = _stats_of(searches)
        if fresh_reads:
            entry["fresh_read"] = _stats_of(fresh_reads)
        if write_applies:
            entry["write_apply"] = _stats_of(write_applies)
        report["profiles"][profile] = entry  # type: ignore[index]
    report["missing_probes"] = missing_probes
    return report


#: Client threads and forked workers of the serving storm.
STORM_CLIENTS = 8
STORM_WORKERS = 2
#: Workload queries the storm replays (each once per client thread).
STORM_QUERIES = 6
#: The serving tier's warm-start contract: a worker attaching the shared
#: artifact must be at least this much faster than rebuilding the index.
WARM_START_MIN_SPEEDUP = 5.0


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _serving_storm(
    repeats: int, cache_dir: Path
) -> tuple[dict, list[str]]:
    """The preforked HTTP tier under a concurrent client storm.

    Returns ``(report, failures)``. Timings are recorded, never gated;
    *failures* carries the two hard claims — every response a 200, every
    worker's ranking byte-identical to an in-process engine over the
    same artifact — plus the warm-start contract (mmap-attaching the
    shared artifact must beat rebuilding the index from rows).
    """
    import threading
    from urllib.parse import quote

    from repro.service import (
        PreforkServer,
        PreforkSettings,
        QuestService,
        shared_artifact_engine,
    )
    from repro.service.http import explanation_payload
    from repro.service.prefork import fetch_json

    sc = scenario("mondial")
    texts = [q.text for q in sc.workload][:STORM_QUERIES]
    artifact = cache_dir / "mondial-serving.npz"
    prepare, factory = shared_artifact_engine(sc.db, artifact)
    prepare()

    # Per-worker warm start: what one forked worker pays to become
    # servable — attach the shared artifact (mmap) vs build the index
    # from the rows (what every worker would do without the artifact).
    # Measured at the index section's imdb scale: the mondial demo index
    # builds in single-digit milliseconds, too small to resolve the gap
    # a production-sized index shows. The artifact name matches
    # ``_index_measurements`` so a shared ``--index-cache`` reuses it.
    index_db = imdb.generate(**INDEX_SCALE)
    index_artifact = cache_dir / "imdb-fulltext.npz"
    FullTextIndex.load_or_build(index_artifact, index_db)
    warm_runs: dict[str, list[float]] = {"mmap_attach": [], "cold_rebuild": []}
    for _ in range(repeats):
        start = time.perf_counter()
        FullTextIndex.load(index_artifact, index_db, mmap=True)
        warm_runs["mmap_attach"].append(time.perf_counter() - start)
        start = time.perf_counter()
        FullTextIndex(index_db).warm()
        warm_runs["cold_rebuild"].append(time.perf_counter() - start)
    warm_speedup = min(warm_runs["cold_rebuild"]) / min(warm_runs["mmap_attach"])
    report: dict[str, object] = {
        "cpus": os.cpu_count(),
        "workers": STORM_WORKERS,
        "clients": STORM_CLIENTS,
        "queries": len(texts),
        "warm_start_rows": index_db.total_rows(),
        "worker_warm_start": {
            mode: _stats_of(runs) for mode, runs in warm_runs.items()
        },
        "warm_start_speedup": warm_speedup,
    }
    failures: list[str] = []
    if warm_speedup < WARM_START_MIN_SPEEDUP:
        failures.append(
            f"mmap warm start ({min(warm_runs['mmap_attach']) * 1e3:.1f}ms) "
            f"is less than {WARM_START_MIN_SPEEDUP:.0f}x faster than a cold "
            f"rebuild ({min(warm_runs['cold_rebuild']) * 1e3:.1f}ms)"
        )

    # The in-process expectation per query: what every worker must
    # reproduce byte for byte through the wire.
    expected = {}
    in_process = QuestService(factory())
    for text in texts:
        response = in_process.search(text)
        expected[text] = json.loads(
            json.dumps(explanation_payload(response.explanations))
        )

    server = PreforkServer(
        factory,
        settings=PreforkSettings(workers=STORM_WORKERS),
        prepare=prepare,
    )
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    pids: set[int] = set()
    lock = threading.Lock()
    with server:
        server.wait_ready(120.0)
        port = server.port

        def client(thread_index: int) -> None:
            for text in texts:
                path = f"/search?q={quote(text)}"
                start = time.perf_counter()
                try:
                    status, body = fetch_json("127.0.0.1", port, path, timeout=120)
                except OSError as exc:
                    with lock:
                        failures.append(f"request {path!r} failed: {exc}")
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    statuses[status] = statuses.get(status, 0) + 1
                    if status != 200:
                        failures.append(f"{path!r} returned {status}: {body}")
                    else:
                        pids.add(body["pid"])
                        if body["results"] != expected[text]:
                            failures.append(
                                f"worker {body['pid']} ranking for {text!r} "
                                "differs from the in-process engine"
                            )

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(STORM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

    ordered = sorted(latencies)
    requests = len(latencies)
    report.update(
        {
            "requests": requests,
            "statuses": statuses,
            "distinct_worker_pids": len(pids),
            "wall_s": wall,
            "requests_per_second": requests / wall if wall else 0.0,
            "p50_latency_s": _quantile(ordered, 0.50) if ordered else None,
            "p95_latency_s": _quantile(ordered, 0.95) if ordered else None,
            "rank_identity": not any("differs" in f for f in failures),
        }
    )

    # The single-process floor: the same storm served by one in-process
    # QuestService (no sockets, no forks) — the number the multi-worker
    # req/s should exceed on multi-core runners.
    jobs = [text for _ in range(STORM_CLIENTS) for text in texts]
    start = time.perf_counter()
    for text in jobs:
        in_process.search(text)
    single_wall = time.perf_counter() - start
    report["single_process_requests_per_second"] = (
        len(jobs) / single_wall if single_wall else 0.0
    )
    return report, failures


def profile_cold_query(backend: str) -> None:
    """Per-stage cProfile of one cold query (top 20 by cumulative time)."""
    sc = scenario("mondial")
    engine = Quest(FullAccessWrapper(create_backend(backend, sc.db)))
    text = next(iter(sc.workload)).text
    keywords = engine.keywords_of(text)
    settings = engine.settings
    context = SearchContext.for_query(
        query=text,
        keywords=keywords,
        k=settings.k,
        pool=settings.k * settings.candidate_factor,
        tree_k=settings.k,
    )
    print(f"profiling cold query {text!r} on backend {backend!r}")
    for stage in engine.pipeline.stages:
        profiler = cProfile.Profile()
        profiler.enable()
        stage.run(engine, context)
        profiler.disable()
        print(f"\n== stage: {stage.name} " + "=" * 50)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def _cold_search(
    sc, backend: str, repeats: int, queries: int
) -> dict[str, dict[str, object]]:
    """Fresh-engine batch search per kernelset (cold caches, interleaved).

    ``stage_seconds`` holds, per stage, the same statistics as the
    whole-query entry (``median_s``/``min_s``/``runs``, one run per
    repetition), normalised **per query** like the top-level figures, so
    they stay comparable across runs with different workload sizes and
    read directly against the per-query acceptance targets. Stage times
    come from each query's own trace.
    """
    texts = [q.text for q in sc.workload][:queries]
    per_query: dict[str, list[float]] = {kernelset: [] for kernelset in KERNELSETS}
    per_stage: dict[str, dict[str, list[float]]] = {
        kernelset: {} for kernelset in KERNELSETS
    }
    details: dict[str, dict] = {kernelset: {} for kernelset in KERNELSETS}
    for _ in range(repeats):
        for kernelset in KERNELSETS:
            engine = Quest(FullAccessWrapper(create_backend(backend, sc.db)))
            kernels = (
                contextlib.nullcontext()
                if kernelset == "optimized"
                else reference_kernels()
            )
            with kernels:
                start = time.perf_counter()
                contexts = engine.search_many_contexts(texts)
                per_query[kernelset].append(
                    (time.perf_counter() - start) / len(texts)
                )
            stage_seconds: dict[str, float] = {}
            for context in contexts:
                for report in context.trace.stages:
                    stage_seconds[report.stage] = (
                        stage_seconds.get(report.stage, 0.0) + report.seconds
                    )
            for stage, seconds in stage_seconds.items():
                per_stage[kernelset].setdefault(stage, []).append(
                    seconds / len(texts)
                )
            emissions = engine.wrapper.emission_cache_stats
            steiner = engine.schema_graph.steiner_cache.stats
            details[kernelset] = {
                "cache": {
                    "emission": {
                        "hits": emissions.hits,
                        "misses": emissions.misses,
                    },
                    "steiner": {"hits": steiner.hits, "misses": steiner.misses},
                },
            }
    return {
        kernelset: {
            **_stats_of(per_query[kernelset]),
            "queries": len(texts),
            "stage_seconds": {
                stage: _stats_of(runs)
                for stage, runs in per_stage[kernelset].items()
            },
            **details[kernelset],
        }
        for kernelset in KERNELSETS
    }


def run_suite(
    backends: list[str],
    repeats: int,
    queries: int,
    smoke: bool,
    index_cache: Path | None = None,
) -> dict:
    """Measure kernels (once), per-backend cold searches, the index
    lifecycle, the service and serving tiers."""
    sc = scenario("mondial")
    with _pinned_to_one_cpu():
        print("-- measuring kernels (interleaved kernel sets) ...", flush=True)
        kernel_entries: dict[str, dict[str, dict]] = {
            kernelset: {} for kernelset in KERNELSETS
        }
        for name, variants in _kernel_measurements(sc).items():
            alternations = KERNEL_ALTERNATIONS.get(name, 1)
            for kernelset, stats in _measure_pair(
                variants, repeats, alternations
            ).items():
                kernel_entries[kernelset][name] = stats
        kernels = {
            kernelset: {"entries": entries}
            for kernelset, entries in kernel_entries.items()
        }
        cold_search: dict[str, dict] = {}
        for backend in backends:
            print(f"-- measuring cold-search {backend} ...", flush=True)
            cold_search[backend] = _cold_search(sc, backend, repeats, queries)
        print("-- measuring index build/load ...", flush=True)
        if index_cache is None:
            with tempfile.TemporaryDirectory() as scratch:
                index = _index_measurements(repeats, Path(scratch))
        else:
            index_cache.mkdir(parents=True, exist_ok=True)
            index = _index_measurements(repeats, index_cache)
    print("-- measuring service throughput ...", flush=True)
    service = _service_throughput(sc, repeats)
    print("-- measuring degraded mode (10% storage flakes) ...", flush=True)
    degraded = _degraded_mode(sc, repeats)
    print("-- measuring mixed read/write workload ...", flush=True)
    mixed_section = _mixed_workload(repeats)
    print("-- measuring serving storm (preforked HTTP tier) ...", flush=True)
    if index_cache is None:
        with tempfile.TemporaryDirectory() as scratch:
            serving, serving_failures = _serving_storm(repeats, Path(scratch))
    else:
        serving, serving_failures = _serving_storm(repeats, index_cache)
    for failure in serving_failures:
        print(f"SERVING STORM FAILURE: {failure}")
    serving["failures"] = serving_failures
    return {
        "workload": "e7-micro",
        "smoke": smoke,
        "repeats": repeats,
        "queries": queries,
        "kernels": kernels,
        "cold_search": cold_search,
        "index": index,
        "service_throughput": service,
        "degraded_mode": degraded,
        "mixed_workload": mixed_section,
        "serving_storm": serving,
    }


def _stage_entry(entry: dict | None, stage: str) -> dict | None:
    """A per-stage pseudo-entry derived from a cold-search entry.

    ``stage_seconds`` carries the stage's per-repetition statistics, so
    the relative gate pairs its repetitions exactly as it does for the
    whole-query entry; ``queries`` is copied so the workload-size
    comparability guard applies to stages too.
    """
    if not entry:
        return None
    stats = (entry.get("stage_seconds") or {}).get(stage)
    if stats is None:
        return None
    return {**stats, "queries": entry.get("queries")}


def _entry_pairs(report: dict):
    """Yield every comparable entry as ``(label, {kernelset: entry})``."""
    for section in ("kernels", "index"):
        groups = report.get(section, {})
        names: set[str] = set()
        for kernelset in groups.values():
            names.update(kernelset.get("entries", {}))
        prefix = "kernel" if section == "kernels" else "index"
        for name in sorted(names):
            yield (
                f"{prefix}/{name}",
                {
                    kernelset: groups.get(kernelset, {}).get("entries", {}).get(name)
                    for kernelset in KERNELSETS
                },
            )
    for backend, kernelsets in report.get("cold_search", {}).items():
        yield (
            f"{backend}/{COLD_SEARCH_ENTRY}",
            {kernelset: kernelsets.get(kernelset) for kernelset in KERNELSETS},
        )
        # Per-stage pseudo-entries, so a regression hiding inside one
        # stage (the backward Steiner pass, the explain counts) is gated
        # even when the whole-query median absorbs it.
        stage_names: set[str] = set()
        for entry in kernelsets.values():
            stage_names.update((entry or {}).get("stage_seconds", {}))
        for stage in sorted(stage_names):
            yield (
                f"{backend}/stage-{stage} per-query",
                {
                    kernelset: _stage_entry(kernelsets.get(kernelset), stage)
                    for kernelset in KERNELSETS
                },
            )


def _stat(entry: dict | None, key: str) -> float | None:
    if not entry:
        return None
    value = entry.get(key)
    return float(value) if value else None


def paired_speedup(entries: dict) -> float:
    """Median over repetitions of reference run *i* / optimized run *i*.

    Raises ``ValueError`` when the runs are not pairs: a side lacks
    per-repetition runs, the two counts differ (a stage that did not run
    in some repetition records fewer runs), or an optimized run is zero.
    """
    fast = (entries.get("optimized") or {}).get("runs")
    slow = (entries.get("reference") or {}).get("runs")
    if not fast or not slow:
        raise ValueError("no per-repetition runs on both kernel sets")
    if len(fast) != len(slow):
        raise ValueError(
            f"{len(fast)} optimized vs {len(slow)} reference runs are not pairs"
        )
    if not all(fast):
        raise ValueError("an optimized run took zero time")
    return statistics.median(s / f for s, f in zip(slow, fast))


def compare(
    current: dict, baseline: dict, tolerance: float, relative: bool
) -> list[str]:
    """Regressions of *current* against *baseline* (empty = all good)."""
    baseline_entries = dict(_entry_pairs(baseline))
    problems: list[str] = []
    for label, entries in _entry_pairs(current):
        base_entries = baseline_entries.get(label)
        if base_entries is None:
            continue
        # Cold-search medians are only comparable at equal workload size:
        # the per-query cost amortises cache warming over the queries.
        now_queries = (entries.get("optimized") or {}).get("queries")
        base_queries = (base_entries.get("optimized") or {}).get("queries")
        if now_queries != base_queries:
            continue
        if relative:
            if any(
                label.endswith(f"/stage-{stage} per-query")
                for stage in SHARED_CODE_STAGES
            ):
                continue  # a ratio of identical code is noise
            # Median of paired per-repetition ratios: machine speed
            # cancels in each ratio, one outlier repetition in the median.
            # Runs that are missing or not pairs fail the gate rather than
            # drop the entry from it; only the noise floor exempts one.
            now_slow = _stat(entries.get("reference"), "min_s")
            base_slow = _stat(base_entries.get("reference"), "min_s")
            if (now_slow is not None and now_slow < NOISE_FLOOR_S) or (
                base_slow is not None and base_slow < NOISE_FLOOR_S
            ):
                continue  # ratio of noise is noise
            try:
                current_ratio = paired_speedup(entries)
                baseline_ratio = paired_speedup(base_entries)
            except ValueError as error:
                problems.append(f"{label}: cannot gate the speedup ratio: {error}")
                continue
            if current_ratio < baseline_ratio * (1.0 - tolerance):
                problems.append(
                    f"{label}: speedup ratio {current_ratio:.2f}x fell below "
                    f"baseline {baseline_ratio:.2f}x (tolerance {tolerance:.0%})"
                )
        else:
            now = _stat(entries.get("optimized"), "median_s")
            base = _stat(base_entries.get("optimized"), "median_s")
            if now is None or base is None:
                continue
            if now < NOISE_FLOOR_S and base < NOISE_FLOOR_S:
                continue  # both under the timer noise floor
            if now > base * (1.0 + tolerance):
                problems.append(
                    f"{label}: optimized median {now * 1e3:.3f}ms exceeds "
                    f"baseline {base * 1e3:.3f}ms (tolerance {tolerance:.0%})"
                )
    return problems


def speedup_report(current: dict, baseline: dict | None) -> str:
    """Human-readable per-entry speedups (+ headline vs committed baseline)."""
    lines = ["optimized vs reference (this run):"]
    ratios = []
    for label, entries in _entry_pairs(current):
        fast = _stat(entries.get("optimized"), "median_s")
        slow = _stat(entries.get("reference"), "median_s")
        if fast and slow:
            ratios.append(slow / fast)
            lines.append(
                f"  {label:34s} {slow * 1e3:9.3f}ms -> {fast * 1e3:9.3f}ms "
                f"({slow / fast:5.2f}x)"
            )
    if ratios:
        lines.append(f"  median entry speedup: {statistics.median(ratios):.2f}x")
    for backend, kernelsets in current.get("cold_search", {}).items():
        fast_stages = (kernelsets.get("optimized") or {}).get("stage_seconds", {})
        slow_stages = (kernelsets.get("reference") or {}).get("stage_seconds", {})
        fast_forward = _stat(fast_stages.get("forward"), "median_s")
        slow_forward = _stat(slow_stages.get("forward"), "median_s")
        if fast_forward and slow_forward:
            lines.append(
                f"  [{backend}] forward stage-seconds: {slow_forward:.3f}s -> "
                f"{fast_forward:.3f}s ({slow_forward / fast_forward:.2f}x)"
            )
    index = current.get("index", {}).get("optimized", {}).get("entries", {})
    build = next(
        (e for name, e in index.items() if name.startswith("fulltext-build")), None
    )
    load = next(
        (e for name, e in index.items() if name.startswith("fulltext-load")), None
    )
    if build and load:
        lines.append(
            f"  index artifact load vs cold build: "
            f"{build['median_s'] * 1e3:.1f}ms build -> "
            f"{load['median_s'] * 1e3:.1f}ms load "
            f"({build['median_s'] / load['median_s']:.1f}x faster warm start)"
        )
    serving = current.get("serving_storm", {})
    if serving and serving.get("requests"):
        lines.append(
            f"  serving storm ({serving.get('workers')} workers, "
            f"{serving.get('clients')} clients, {serving.get('cpus')} cpus): "
            f"{serving.get('requests_per_second', 0.0):.1f} req/s, "
            f"p95 {float(serving.get('p95_latency_s') or 0) * 1e3:.1f}ms; "
            f"worker warm start mmap vs rebuild "
            f"{serving.get('warm_start_speedup', 0.0):.1f}x"
        )
    service = current.get("service_throughput", {})
    if service:
        uncoalesced = service.get("uncoalesced", {})
        coalesced = service.get("coalesced", {})
        if uncoalesced and coalesced:
            lines.append(
                f"  service throughput ({service.get('threads')} threads): "
                f"{uncoalesced['requests_per_second']:.1f} req/s uncoalesced, "
                f"{coalesced['requests_per_second']:.1f} req/s coalesced "
                f"({service.get('coalesce_speedup', 0.0):.2f}x; "
                f"{coalesced.get('executed', 0)} engine runs answered "
                f"{coalesced.get('executed', 0) + coalesced.get('coalesced', 0)}"
                " requests)"
            )
    if baseline is not None:
        for backend, kernelsets in current.get("cold_search", {}).items():
            now = _stat(kernelsets.get("optimized"), "median_s")
            base_ref = _stat(
                baseline.get("cold_search", {}).get(backend, {}).get("reference"),
                "median_s",
            )
            if now and base_ref:
                lines.append(
                    f"  [{backend}] cold-query speedup vs committed baseline "
                    f"(reference kernels): {base_ref / now:.2f}x"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--backends",
        default="memory",
        help="comma-separated storage backends for the cold-search pass "
        "(default: memory)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--queries", type=int, default=10, help="workload queries per cold pass"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: fewer repeats (the query count stays put — "
        "cold per-query cost amortises cache warming over the workload, "
        "so runs with different query counts are not comparable)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline to compare against (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write this run's JSON (default: the baseline path "
        "with --update-baseline, else BENCH_e7.current.json next to it)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown before failing (default: 0.30)",
    )
    parser.add_argument(
        "--relative",
        action="store_true",
        help="compare optimized/reference speedup ratios (the median of "
        "paired per-repetition ratios) instead of absolute medians — use "
        "on machines unlike the baseline's",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run to --baseline and skip the comparison",
    )
    parser.add_argument(
        "--index-cache",
        type=Path,
        default=None,
        help="directory holding the .npz index artifacts (reused across "
        "runs when the data still matches; CI caches it between steps)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage cProfile (top 20 by cumtime) of one cold "
        "query instead of running the measurement suite",
    )
    parser.add_argument(
        "--service-only",
        action="store_true",
        help="measure only the service_throughput section (CI concurrency "
        "smoke); timings are recorded, not gated — the only failure is "
        "an identical-query storm that never coalesces",
    )
    parser.add_argument(
        "--serving-only",
        action="store_true",
        help="measure only the serving_storm section (CI serving smoke): "
        "boot the preforked HTTP fleet, storm it with concurrent clients, "
        "hard-fail on any non-200 or rank-identity break, record req/s, "
        "p50/p95 and per-worker warm-start (mmap vs rebuild) seconds; "
        "with --update-baseline the section is merged into the committed "
        "baseline without touching its other entries",
    )
    parser.add_argument(
        "--degraded-only",
        action="store_true",
        help="measure only the degraded_mode section (CI chaos smoke): "
        "service throughput under a seeded 10%% storage-flake rate, with "
        "retries absorbing single flakes and the revision-stale tier "
        "answering double-flakes; recorded, not gated — the only failure "
        "is a request that goes unanswered; with --update-baseline the "
        "section is merged into the committed baseline without touching "
        "its other entries",
    )
    parser.add_argument(
        "--mixed-only",
        action="store_true",
        help="measure only the mixed_workload section (CI recovery "
        "smoke): fresh-read/search/write-apply latency while journaled "
        "writers churn the delta layer; recorded, not gated — the only "
        "failure is a broken read-your-writes (an acknowledged batch "
        "whose probe keyword a search cannot see); with "
        "--update-baseline the section is merged into the committed "
        "baseline without touching its other entries",
    )
    parser.add_argument(
        "--backward-only",
        action="store_true",
        help="CI smoke of the backward stage alone: one cold-search pass "
        "per backend, gating only the backward per-query stage seconds "
        "(optimized must beat reference) — fast enough for every PR",
    )
    args = parser.parse_args(argv)

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    repeats = 3 if args.smoke else args.repeats
    queries = args.queries

    if args.profile:
        profile_cold_query(backends[0])
        return 0

    if args.service_only:
        service = _service_throughput(scenario("mondial"), repeats)
        print(json.dumps(service, indent=2, sort_keys=True))
        coalesced = service["coalesced"]
        # The smoke's one hard claim: the storm coalesced — identical
        # in-flight requests shared pipeline runs instead of repeating them.
        if not coalesced["coalesced"]:
            print("ERROR: the identical-query storm never coalesced")
            return 1
        print(
            f"coalesce speedup: {service['coalesce_speedup']:.2f}x "
            f"({coalesced['executed']} engine runs for "
            f"{service['requests_per_run'] * repeats} requests)"
        )
        return 0

    if args.serving_only:
        if args.index_cache is not None:
            args.index_cache.mkdir(parents=True, exist_ok=True)
            serving, failures = _serving_storm(repeats, args.index_cache)
        else:
            with tempfile.TemporaryDirectory() as scratch:
                serving, failures = _serving_storm(repeats, Path(scratch))
        serving["failures"] = failures
        print(json.dumps(serving, indent=2, sort_keys=True))
        print(
            f"serving storm: {serving['requests_per_second']:.1f} req/s over "
            f"{serving['workers']} workers ({serving['clients']} clients, "
            f"{serving.get('cpus')} cpus), "
            f"p95 {float(serving['p95_latency_s'] or 0) * 1e3:.1f}ms; "
            f"warm start mmap vs rebuild: "
            f"{serving['warm_start_speedup']:.1f}x"
        )
        if failures:
            for failure in failures:
                print(f"ERROR: {failure}")
            return 1
        if args.update_baseline:
            # Merge only this section into the committed baseline — the
            # other entries were measured on a different (possibly
            # slower/faster) run and must not be silently replaced.
            baseline = (
                json.loads(args.baseline.read_text())
                if args.baseline.exists()
                else {}
            )
            baseline["serving_storm"] = serving
            args.baseline.write_text(
                json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            )
            print(f"merged serving_storm into {args.baseline}")
        return 0

    if args.degraded_only:
        degraded = _degraded_mode(scenario("mondial"), repeats)
        print(json.dumps(degraded, indent=2, sort_keys=True))
        flaky = degraded["degraded"]
        print(
            f"degraded mode: {flaky['requests_per_second']:.1f} req/s at a "
            f"{degraded['flake_rate']:.0%} flake rate "
            f"({flaky['injected_faults']} faults over "
            f"{flaky['storage_reads']} reads, "
            f"{flaky['stale_served']} stale answers), "
            f"{degraded['degraded_overhead']:.2f}x the healthy pass"
        )
        # The one hard claim: degradation never loses a request — every
        # storm request was answered (fresh or revision-stale).
        unanswered = degraded["healthy"]["failed"] + flaky["failed"]
        if unanswered:
            print(f"ERROR: {unanswered} storm requests went unanswered")
            return 1
        if args.update_baseline:
            # Merge only this section into the committed baseline — the
            # other entries were measured on a different run and must
            # not be silently replaced.
            baseline = (
                json.loads(args.baseline.read_text())
                if args.baseline.exists()
                else {}
            )
            baseline["degraded_mode"] = degraded
            args.baseline.write_text(
                json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            )
            print(f"merged degraded_mode into {args.baseline}")
        return 0

    if args.mixed_only:
        mixed_section = _mixed_workload(repeats)
        print(json.dumps(mixed_section, indent=2, sort_keys=True))
        for profile, entry in sorted(mixed_section["profiles"].items()):
            fresh = entry.get("fresh_read", {}).get("median_s")
            search = entry.get("search", {}).get("median_s")
            apply_ = entry.get("write_apply", {}).get("median_s")
            print(
                f"mixed workload [{profile}]: "
                f"{entry['ops_per_second']:.1f} ops/s "
                f"(search p50 {float(search or 0) * 1e3:.3f}ms, "
                f"fresh read p50 {float(fresh or 0) * 1e3:.3f}ms, "
                f"write apply p50 {float(apply_ or 0) * 1e3:.3f}ms)"
            )
        # The one hard claim: read-your-writes — every acknowledged
        # add's probe keyword was searchable immediately.
        if mixed_section["missing_probes"]:
            print(
                f"ERROR: {mixed_section['missing_probes']} acknowledged "
                "batches were invisible to an immediate search"
            )
            return 1
        if args.update_baseline:
            # Merge only this section into the committed baseline — the
            # other entries were measured on a different run and must
            # not be silently replaced.
            baseline = (
                json.loads(args.baseline.read_text())
                if args.baseline.exists()
                else {}
            )
            baseline["mixed_workload"] = mixed_section
            args.baseline.write_text(
                json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            )
            print(f"merged mixed_workload into {args.baseline}")
        return 0

    if args.backward_only:
        sc = scenario("mondial")
        failed = False
        for backend in backends:
            with _pinned_to_one_cpu():
                result = _cold_search(sc, backend, repeats, queries)
            backward = {
                kernelset: result[kernelset]["stage_seconds"].get("backward")
                for kernelset in KERNELSETS
            }
            fast = _stat(backward["optimized"], "median_s")
            slow = _stat(backward["reference"], "median_s")
            if not fast or not slow:
                print(f"ERROR: [{backend}] no backward stage timings")
                failed = True
                continue
            print(
                f"[{backend}] backward per-query: reference {slow * 1e3:.3f}ms "
                f"-> optimized {fast * 1e3:.3f}ms ({slow / fast:.2f}x)"
            )
            # The one hard claim: the optimized backward stage is not
            # slower than the reference path beyond tolerance. An
            # absolute target would gate on machine speed; this gates on
            # the optimisation still existing.
            if fast > slow * (1.0 + args.tolerance):
                print(
                    f"ERROR: [{backend}] optimized backward stage "
                    f"({fast * 1e3:.3f}ms) slower than reference "
                    f"({slow * 1e3:.3f}ms) beyond {args.tolerance:.0%}"
                )
                failed = True
        return 1 if failed else 0

    current = run_suite(
        backends,
        repeats,
        queries,
        args.smoke,
        index_cache=args.index_cache,
    )

    baseline = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    output = args.output
    if output is None:
        output = (
            args.baseline
            if args.update_baseline
            else args.baseline.with_name("BENCH_e7.current.json")
        )
    output.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    print()
    print(speedup_report(current, baseline))

    serving_failures = current.get("serving_storm", {}).get("failures") or []
    if serving_failures:
        print()
        print("SERVING STORM FAILURES:")
        for failure in serving_failures:
            print(f"  {failure}")
        return 1

    if args.update_baseline:
        return 0
    if baseline is None:
        # A gate with nothing to compare against must not read as green:
        # --relative is the CI mode, where a missing committed baseline
        # means the regression check silently stopped existing.
        if args.relative:
            print(f"ERROR: no committed baseline at {args.baseline}")
            return 2
        print("no committed baseline found: nothing to compare against")
        return 0

    problems = compare(current, baseline, args.tolerance, args.relative)
    if problems:
        print()
        print("PERF REGRESSIONS:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print()
    print(f"no regression beyond {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
