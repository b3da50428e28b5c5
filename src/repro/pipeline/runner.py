"""The pipeline runner: stage composition, tracing and the batch tier.

``SearchPipeline`` owns an ordered tuple of stages (by default the
canonical ``Forward -> Backward -> Combine -> Explain``) and drives one
query's :class:`~repro.pipeline.context.SearchContext` through them,
recording per-stage wall time and candidate counts plus the emission- and
Steiner-cache hit/miss deltas into the context's
:class:`~repro.pipeline.context.SearchTrace`. The deltas come from a
context-local :class:`~repro.cache.CacheRecorder` installed around the
stages — every cache lookup is credited to the run that issued it, so the
per-query counts stay exact even when concurrent runs share one wrapper
or schema graph (global before/after snapshots would interleave).

``run_many`` is the batch entry point behind ``Quest.search_many``: it
replays the pipeline per query while the wrapper- and graph-level caches
accumulate state, so repeated keywords and terminal sets across a workload
are answered from cache.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.cache import CacheRecorder, CacheStats, recording
from repro.errors import DeadlineExceededError, QuestError
from repro.pipeline.context import SearchContext, SearchTrace, StageReport
from repro.pipeline.stages import (
    BackwardStage,
    CombineStage,
    ExplainStage,
    ForwardStage,
    PipelineStage,
)

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.configuration import Configuration
    from repro.core.engine import Quest
    from repro.core.explanation import Explanation
    from repro.core.interpretation import Interpretation
    from repro.resilience import Deadline

__all__ = ["SearchPipeline"]


def _run_stats(recorder: CacheRecorder, cache: object, label: str) -> CacheStats:
    """One run's hits/misses on *cache*, with its size at completion.

    Hits and misses are the recorder's exact per-run counts for the
    cache's label (*label* when the cache is absent); size and maxsize
    describe the shared ``LRUCache``-like object (zero when absent).
    """
    delta = recorder.stats(getattr(cache, "label", label))
    now = getattr(cache, "stats", None)
    if not isinstance(now, CacheStats):
        now = CacheStats()
    return CacheStats(
        hits=delta.hits, misses=delta.misses, size=now.size, maxsize=now.maxsize
    )


class SearchPipeline:
    """Composable staged execution of Algorithm 1 over one engine."""

    def __init__(self, stages: Sequence[PipelineStage] | None = None) -> None:
        self.stages: tuple[PipelineStage, ...] = (
            tuple(stages)
            if stages is not None
            else (ForwardStage(), BackwardStage(), CombineStage(), ExplainStage())
        )
        if not self.stages:
            raise QuestError("a search pipeline needs at least one stage")
        self._by_name = {stage.name: stage for stage in self.stages}

    def stage(self, name: str) -> PipelineStage:
        """The stage registered under *name*."""
        try:
            return self._by_name[name]
        except KeyError:
            raise QuestError(f"pipeline has no stage named {name!r}") from None

    # -- full runs -----------------------------------------------------------

    def run(
        self,
        engine: "Quest",
        query: str | None = None,
        keywords: Sequence[str] | None = None,
        k: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> SearchContext:
        """Drive one query through every stage and return its context.

        Either *query* (tokenised here) or pre-tokenised *keywords* must be
        given; passing keywords lets batch callers (multi-source search)
        tokenise once and fan out. *deadline* bounds the run: stages
        degrade cooperatively and the trace comes back with
        ``degraded=True``, or :class:`DeadlineExceededError` is raised
        when the budget dies before anything salvageable exists.
        """
        settings = engine.settings
        k = k or settings.k
        if keywords is None:
            if query is None:
                raise QuestError("run() needs a query or keywords")
            keywords = engine.keywords_of(query)
        elif not keywords:
            raise QuestError("run() got an empty keyword list")
        context = SearchContext.for_query(
            query=query,
            keywords=list(keywords),
            k=k,
            pool=k * settings.candidate_factor,
            tree_k=settings.k,
            deadline=deadline,
        )
        self.execute(engine, context)
        return context

    def execute(self, engine: "Quest", context: SearchContext) -> SearchContext:
        """Run every stage over an already-primed context, tracing as we go.

        Cache attribution is exact per run: a context-local
        :class:`~repro.cache.CacheRecorder` is installed around the
        stages, so each lookup on the shared emission/Steiner/count caches is
        credited to the run that issued it — concurrent runs on one
        engine (or one wrapper shared by several engines) cannot leak
        counts into each other's traces.
        """
        emission_cache = getattr(engine.wrapper, "emission_cache", None)
        steiner_cache = getattr(engine.schema_graph, "steiner_cache", None)
        count_cache = getattr(
            getattr(engine.wrapper, "backend", None), "count_cache", None
        )
        recorder = CacheRecorder()
        with recording(recorder):
            for stage in self.stages:
                self._check_deadline(context)
                start = time.perf_counter()
                stage.run(engine, context)
                context.trace.stages.append(
                    StageReport(
                        stage=stage.name,
                        seconds=time.perf_counter() - start,
                        candidates=stage.candidates(context),
                    )
                )
        trace = context.trace
        trace.emission_cache = _run_stats(recorder, emission_cache, "emission")
        trace.steiner_cache = _run_stats(recorder, steiner_cache, "steiner")
        trace.count_cache = _run_stats(recorder, count_cache, "count")
        return context

    @staticmethod
    def _check_deadline(context: SearchContext) -> None:
        """The between-stages deadline backstop.

        Stages also check cooperatively *inside* their loops; this catch
        guards the seams. An expired budget with nothing salvageable yet
        (no interpretations and no explanations — the combine/explain
        stages could not produce an answer from what exists) aborts with
        :class:`DeadlineExceededError`; with salvageable products the run
        continues degraded so the remaining cheap stages can turn them
        into best-effort answers.
        """
        deadline = context.deadline
        if deadline is None or not deadline.expired():
            return
        if not (context.interpretations or context.explanations):
            raise DeadlineExceededError(deadline.budget_ms)
        context.mark_degraded(
            f"deadline: budget {deadline.budget_ms:.0f}ms exhausted "
            "mid-pipeline; serving best-so-far results"
        )

    def run_many(
        self,
        engine: "Quest",
        queries: Sequence[str],
        k: int | None = None,
        strict: bool = True,
    ) -> list[SearchContext]:
        """Run a workload of queries back to back, reusing cached state.

        With ``strict=False`` a query that raises — :class:`QuestError`
        (no usable keywords, no configurations, ...) or anything a broken
        wrapper throws — yields a context with empty results and
        ``context.error`` set, instead of aborting the batch: evaluation
        harnesses score such queries as misses, exactly like the
        per-query :func:`~repro.eval.harness.evaluate` loop.
        """
        contexts: list[SearchContext] = []
        for query in queries:
            start = time.perf_counter()
            try:
                contexts.append(self.run(engine, query=query, k=k))
            except Exception as error:
                if strict:
                    raise
                failed = SearchContext.for_query(
                    query=query,
                    keywords=[],
                    k=k or engine.settings.k,
                    pool=(k or engine.settings.k) * engine.settings.candidate_factor,
                    tree_k=engine.settings.k,
                )
                failed.error = error
                # The work burned before the failure still counts: keep
                # the trace's total_seconds honest (evaluate() parity).
                failed.trace.stages.append(
                    StageReport(
                        stage="error",
                        seconds=time.perf_counter() - start,
                        candidates=0,
                    )
                )
                contexts.append(failed)
        return contexts

    # -- single-stage conveniences -------------------------------------------
    #
    # These back the engine's thin public wrappers (`Quest.forward` etc.):
    # each primes a minimal context, runs exactly one stage and returns that
    # stage's product.

    def forward(
        self, engine: "Quest", keywords: Sequence[str], k: int
    ) -> list["Configuration"]:
        context = SearchContext(keywords=list(keywords), pool=k)
        self.stage("forward").run(engine, context)
        return context.configurations

    def backward(
        self, engine: "Quest", configurations: Sequence["Configuration"], k: int
    ) -> list["Interpretation"]:
        context = SearchContext(configurations=list(configurations), tree_k=k)
        self.stage("backward").run(engine, context)
        return context.interpretations

    def combine(
        self,
        engine: "Quest",
        configurations: Sequence["Configuration"],
        interpretations: Sequence["Interpretation"],
        k: int,
    ) -> list["Interpretation"]:
        context = SearchContext(
            configurations=list(configurations),
            interpretations=list(interpretations),
            rank_k=k,
        )
        self.stage("combine").run(engine, context)
        return context.ranked

    def explain(
        self,
        engine: "Quest",
        interpretations: Sequence["Interpretation"],
        limit: int | None,
    ) -> list["Explanation"]:
        context = SearchContext(ranked=list(interpretations), limit=limit)
        self.stage("explain").run(engine, context)
        return context.explanations

    def __repr__(self) -> str:
        names = " -> ".join(stage.name for stage in self.stages)
        return f"SearchPipeline({names})"
