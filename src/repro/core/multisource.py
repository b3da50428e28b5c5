"""Multi-source search: Algorithm 2 ("Combine Results") of the paper.

QUEST is designed "as an add-on to existing databases, allowing users to
express keyword query not only on owned databases, but also on virtually
integrated data sources". Algorithm 2 in Figure 1 combines partial queries
from two sources: each source's forward (H) and backward (S) evidence is
combined into per-source explanations E1, E2, and a final Dempster-Shafer
combination with per-source ignorance values ``O_E1``, ``O_E2`` merges the
two explanation rankings into the top-k answers T.

Here each source is a full :class:`~repro.core.engine.Quest` engine (which
already performs the per-source H x S combination), and this module
implements the outer combination over any number of sources. The query is
tokenised exactly once; the per-source searches — independent by
construction — fan out over a thread pool and their rankings are collected
as each engine completes. The final Dempster-Shafer fold needs the union
frame of every source's answers, so it runs after the last source reports,
always in declaration order: results are bit-identical to a sequential run
regardless of thread scheduling.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Sequence

from repro.core.engine import Quest
from repro.core.explanation import Explanation
from repro.dst.belief import rank_hypotheses
from repro.dst.combine import dempster_combine
from repro.dst.mass import FrameInterning, MassFunction
from repro.errors import QuestError
from repro.forksafe import register_lock_holder
from repro.semantics.tokenize import tokenize_query

__all__ = ["MultiSourceQuest"]


def _reset_multisource_lock(quest: "MultiSourceQuest") -> None:
    # Thread pools do not survive a fork either: a pool snapshot in the
    # child has no worker threads, so drop it for lazy recreation.
    quest._executor_lock = threading.Lock()
    quest._executor = None
    quest._executor_width = 0

#: Upper bound on fan-out threads when the caller does not choose one.
DEFAULT_MAX_WORKERS = 8


class MultiSourceQuest:
    """Keyword search over several sources with DS result combination.

    Args:
        engines: named per-source engines.
        ignorance: per-source ignorance values (``O_E1``, ``O_E2``, ... in
            the paper); defaults to 0.3 for every source. Raising a
            source's value lowers its influence on the merged ranking.
        max_workers: fan-out width for per-source searches; ``1`` forces
            fully sequential execution (useful for debugging and for
            differential tests against the threaded path). Defaults to
            one thread per source, capped at ``DEFAULT_MAX_WORKERS``.
    """

    def __init__(
        self,
        engines: dict[str, Quest],
        ignorance: dict[str, float] | None = None,
        max_workers: int | None = None,
    ) -> None:
        if not engines:
            raise QuestError("multi-source search needs at least one source")
        if max_workers is not None and max_workers <= 0:
            raise QuestError(f"max_workers must be positive, got {max_workers}")
        self.engines = dict(engines)
        self.max_workers = max_workers
        #: Lazily created and reused across searches so a workload pays
        #: one thread-pool spin-up, not one per query. Creation is guarded
        #: by a lock: concurrent first searches must not race two pools
        #: into existence (the loser would leak its worker threads).
        self._executor: ThreadPoolExecutor | None = None
        #: Width the live executor was created with; when the effective
        #: width changes (``max_workers`` reassigned, engines added) the
        #: stale pool is replaced instead of silently reused.
        self._executor_width = 0
        self._executor_lock = threading.Lock()
        register_lock_holder(self, _reset_multisource_lock)
        self.ignorance = {
            name: 0.3 if ignorance is None else ignorance.get(name, 0.3)
            for name in self.engines
        }
        for name, value in self.ignorance.items():
            if not 0.0 <= value <= 1.0:
                raise QuestError(
                    f"ignorance for source {name!r} must be in [0, 1]"
                )

    # -- per-source execution -------------------------------------------------

    def _search_source(
        self, name: str, keywords: list[str], k: int
    ) -> tuple[float, list[Explanation]]:
        """Coverage and ranked explanations of one source.

        A source that cannot process the query (no configurations, ...)
        contributes nothing rather than aborting the combination.
        """
        engine = self.engines[name]
        try:
            coverage = engine.evidence_coverage(keywords)
            explanations = engine.search_keywords(keywords, k)
        except QuestError:
            return 0.0, []
        return coverage, explanations

    def _gather(
        self, keywords: list[str], k: int
    ) -> tuple[dict[str, float], dict[str, list[Explanation]]]:
        """Run every source, threaded when more than one worker is allowed."""
        coverage: dict[str, float] = {}
        per_source: dict[str, list[Explanation]] = {}
        workers = self.max_workers
        if workers is None:
            workers = min(len(self.engines), DEFAULT_MAX_WORKERS)
        if workers == 1 or len(self.engines) == 1:
            for name in self.engines:
                coverage[name], per_source[name] = self._search_source(
                    name, keywords, k
                )
            return coverage, per_source

        futures: dict | None = None
        for _attempt in range(3):
            executor = self._ensure_executor(workers)
            partial: dict = {}
            try:
                for name in self.engines:
                    partial[
                        executor.submit(self._search_source, name, keywords, k)
                    ] = name
                futures = partial
                break
            except RuntimeError:
                # The pool was swapped out (width change) or shut down
                # (close()) by a sibling thread between capture and
                # submit. Cancel whatever made it in (queued tasks are
                # dropped; running ones finish and are discarded) and
                # retry the whole batch on the fresh pool.
                for future in partial:
                    future.cancel()
                futures = None
        if futures is None:
            # Pathological churn on the executor: answer sequentially
            # rather than loop forever.
            for name in self.engines:
                coverage[name], per_source[name] = self._search_source(
                    name, keywords, k
                )
            return coverage, per_source
        # Collect rankings as sources complete (fast engines are not
        # held behind slow ones); the DS fold itself happens after the
        # last one, over the union frame.
        for future in as_completed(futures):
            name = futures[future]
            coverage[name], per_source[name] = future.result()
        return coverage, per_source

    def _ensure_executor(self, workers: int) -> ThreadPoolExecutor:
        """The shared pool, (re)created at the effective width.

        A pool released by :meth:`close` or built at a different width is
        replaced; the stale pool is shut down without waiting (work
        already on it completes, new submissions are refused — sibling
        searches holding the old reference retry in :meth:`_gather`).
        """
        stale: ThreadPoolExecutor | None = None
        with self._executor_lock:
            if self._executor is None or self._executor_width != workers:
                stale, self._executor = self._executor, ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="quest-source"
                )
                self._executor_width = workers
            executor = self._executor
        if stale is not None:
            stale.shutdown(wait=False)
        return executor

    def close(self) -> None:
        """Shut down the shared executor (idempotent; optional — worker
        threads are also reaped at interpreter exit)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._executor_width = 0
        if executor is not None:
            executor.shutdown(wait=True)

    @property
    def version(self) -> tuple:
        """Combined result-affecting revision over every source engine.

        Mirrors :attr:`Quest.version` for the serving tier: any mutation
        that could change a merged ranking moves this — a source
        engine's own version, the set of sources, or the per-source
        ignorance values (a documented knob callers may reassign
        directly, so it is keyed by content rather than by a counter).
        """
        return (
            tuple(sorted(self.ignorance.items())),
            tuple((name, engine.version) for name, engine in self.engines.items()),
        )

    def __enter__(self) -> "MultiSourceQuest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the outer combination -------------------------------------------------

    def search(
        self, query: str, k: int = 10
    ) -> list[tuple[str, Explanation]]:
        """Top-k explanations across all sources, best first.

        Hypotheses are ``(source name, SQL signature)`` pairs — the same
        structural query found on two sources is two distinct answers, as
        the sources hold different data. Returns ``(source, explanation)``
        pairs ranked by combined probability (stored on the explanation).
        """
        # Tokenise once for every source; the engines receive the keyword
        # list directly instead of re-tokenising the raw text.
        keywords = tokenize_query(query)
        if not keywords:
            return []
        coverage, per_source = self._gather(keywords, k)
        if not any(per_source.values()):
            return []

        # One body of evidence per source over the union frame of answers,
        # in source-then-rank order (not a hash-salted set's order).
        frame = list(
            dict.fromkeys(
                (name, explanation.query.signature())
                for name, explanations in per_source.items()
                for explanation in explanations
            )
        )
        # One shared interning for the whole combination chain (no
        # per-combine re-encoding).
        interning = FrameInterning(frame)
        bodies: list[MassFunction] = []
        by_hypothesis: dict[tuple, tuple[str, Explanation]] = {}
        for name in self.engines:
            explanations = per_source.get(name, [])
            scores: dict[tuple, float] = {}
            for explanation in explanations:
                hypothesis = (name, explanation.query.signature())
                scores[hypothesis] = explanation.probability
                by_hypothesis[hypothesis] = (name, explanation)
            if not scores:
                continue
            # A source that lacks evidence for part of the query is more
            # ignorant about it: its declared O_E scales up so its
            # (necessarily speculative) answers weigh less.
            effective_ignorance = 1.0 - (
                (1.0 - self.ignorance[name]) * coverage.get(name, 1.0)
            )
            bodies.append(
                MassFunction.from_scores(
                    scores, effective_ignorance, frame, interning=interning
                )
            )

        combined = bodies[0]
        for body in bodies[1:]:
            combined = dempster_combine(combined, body)

        ranked: list[tuple[str, Explanation]] = []
        for hypothesis, probability in rank_hypotheses(combined, k):
            name, explanation = by_hypothesis[hypothesis]
            ranked.append(
                (
                    name,
                    Explanation(
                        interpretation=explanation.interpretation,
                        query=explanation.query,
                        probability=probability,
                        result_count=explanation.result_count,
                    ),
                )
            )
        return ranked

    def search_many(
        self, queries: Sequence[str], k: int = 10
    ) -> list[list[tuple[str, Explanation]]]:
        """Answer a workload of queries, one merged ranking per query.

        Queries run back to back, so each source engine's emission and
        Steiner caches warm across the workload exactly as in
        :meth:`Quest.search_many`.
        """
        return [self.search(query, k) for query in queries]
