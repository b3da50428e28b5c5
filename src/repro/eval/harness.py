"""The evaluation harness: run any engine over a workload, tabulate quality.

Engines are adapted to a single callable signature ``(query_text, k) ->
ranked SelectQuery list`` so QUEST, its module ablations and the baselines
are measured identically. Per-query hit lists reduce to the aggregate
metrics reported in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.engine import Quest
from repro.core.settings import QuestSettings
from repro.datasets.workload import Workload, WorkloadQuery
from repro.db.database import Database
from repro.db.query import SelectQuery
from repro.eval.metrics import (
    hit_list,
    mean,
    ndcg_at_k,
    precision_at_k,
    reciprocal_rank,
    success_at_k,
)
from repro.storage import create_backend

__all__ = [
    "SearchEngine",
    "QueryOutcome",
    "EvaluationResult",
    "evaluate",
    "evaluate_batch",
    "evaluate_backends",
    "quest_engine",
    "forward_only_engine",
    "backward_only_engine",
]

#: Anything that maps a keyword query to a ranked list of SQL queries.
SearchEngine = Callable[[str, int], list[SelectQuery]]


@dataclass(frozen=True)
class QueryOutcome:
    """Evaluation of one workload query."""

    query: WorkloadQuery
    hits: tuple[bool, ...]
    seconds: float

    @property
    def rank(self) -> int | None:
        """1-based rank of the first correct result, ``None`` if absent."""
        for position, hit in enumerate(self.hits, start=1):
            if hit:
                return position
        return None


@dataclass
class EvaluationResult:
    """Aggregate metrics over one workload run."""

    engine_name: str
    workload_name: str
    outcomes: list[QueryOutcome] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.outcomes)

    def success_at(self, k: int) -> float:
        return mean([success_at_k(o.hits, k) for o in self.outcomes])

    @property
    def mrr(self) -> float:
        return mean([reciprocal_rank(o.hits) for o in self.outcomes])

    def precision_at(self, k: int) -> float:
        return mean([precision_at_k(o.hits, k) for o in self.outcomes])

    def ndcg_at(self, k: int) -> float:
        return mean([ndcg_at_k(o.hits, k) for o in self.outcomes])

    @property
    def mean_seconds(self) -> float:
        return mean([o.seconds for o in self.outcomes])

    def summary(self) -> dict[str, float]:
        """The metric row reported by every benchmark."""
        return {
            "queries": float(self.query_count),
            "success@1": self.success_at(1),
            "success@3": self.success_at(3),
            "success@10": self.success_at(10),
            "mrr": self.mrr,
            "ndcg@10": self.ndcg_at(10),
            "mean_seconds": self.mean_seconds,
        }


def evaluate(
    engine: SearchEngine,
    workload: Workload | Sequence[WorkloadQuery],
    k: int = 10,
    engine_name: str = "engine",
) -> EvaluationResult:
    """Run *engine* over every workload query and collect metrics.

    Engine failures on individual queries count as misses (empty hit list)
    rather than aborting the run — a search engine that errors out on a
    query has, for evaluation purposes, simply not answered it.
    """
    workload_name = workload.name if isinstance(workload, Workload) else "ad-hoc"
    result = EvaluationResult(engine_name=engine_name, workload_name=workload_name)
    for query in workload:
        start = time.perf_counter()
        try:
            ranked = engine(query.text, k)
        except Exception:
            ranked = []
        elapsed = time.perf_counter() - start
        result.outcomes.append(
            QueryOutcome(
                query=query,
                hits=tuple(hit_list(ranked, query.gold_query)),
                seconds=elapsed,
            )
        )
    return result


def evaluate_batch(
    quest: Quest,
    workload: Workload | Sequence[WorkloadQuery],
    k: int = 10,
    engine_name: str = "quest-batch",
) -> EvaluationResult:
    """Evaluate a QUEST engine through its batch tier.

    The whole workload goes through ``Quest.search_many_contexts`` in one
    go, so the emission and Steiner caches warm across queries exactly as
    they would under production traffic; per-query timings come from each
    run's own :class:`~repro.pipeline.context.SearchTrace` rather than an
    outer stopwatch — never from the engine's shared ``batch_traces``
    mirror, which another batch may overwrite in between. Queries that
    fail (``context.error`` set) score as misses, matching
    :func:`evaluate`.
    """
    workload_name = workload.name if isinstance(workload, Workload) else "ad-hoc"
    queries = list(workload)
    contexts = quest.search_many_contexts(
        [query.text for query in queries], k=k, strict=False
    )
    result = EvaluationResult(engine_name=engine_name, workload_name=workload_name)
    for query, context in zip(queries, contexts):
        ranked = [explanation.query for explanation in context.explanations]
        result.outcomes.append(
            QueryOutcome(
                query=query,
                hits=tuple(hit_list(ranked, query.gold_query)),
                seconds=context.trace.total_seconds,
            )
        )
    return result


def evaluate_backends(
    database: Database,
    workload: Workload | Sequence[WorkloadQuery],
    backends: Sequence[str] = ("memory", "sqlite"),
    k: int = 10,
    settings: QuestSettings | None = None,
) -> dict[str, EvaluationResult]:
    """Run the same workload against one QUEST engine per storage backend.

    Each backend gets a fresh engine over a fresh copy of *database*'s
    contents, and the whole workload runs through the batch tier. Because
    backends guarantee score parity, per-backend results differ only in
    timing — the quality rows are a built-in cross-engine consistency
    check, and the timings are the honest backend comparison.
    """
    from repro.wrapper.full import FullAccessWrapper

    results: dict[str, EvaluationResult] = {}
    for name in backends:
        quest = Quest(FullAccessWrapper(create_backend(name, database)), settings)
        results[name] = evaluate_batch(
            quest, workload, k=k, engine_name=f"quest-{name}"
        )
    return results


# -- engine adapters ---------------------------------------------------------


def quest_engine(quest: Quest) -> SearchEngine:
    """Adapt a :class:`Quest` instance to the harness signature."""

    def run(text: str, k: int) -> list[SelectQuery]:
        return [explanation.query for explanation in quest.search(text, k)]

    return run


def forward_only_engine(quest: Quest, mode: str = "combined") -> SearchEngine:
    """QUEST with the backward step neutralised (forward ranking only).

    Each configuration is materialised with its single best join path, but
    the ranking is the forward confidence alone — this is the "forward
    module in isolation" partial result of demo message two.

    Args:
        quest: the engine to ablate.
        mode: ``"combined"``, ``"apriori"`` or ``"feedback"``.
    """

    def run(text: str, k: int) -> list[SelectQuery]:
        keywords = quest.keywords_of(text)
        if mode == "apriori":
            configurations = quest.decode(keywords, quest.apriori_model, k)
        elif mode == "feedback":
            if quest.feedback_model is None:
                return []
            configurations = quest.decode(keywords, quest.feedback_model, k)
        else:
            configurations = quest.forward(keywords, k)
        queries: list[SelectQuery] = []
        seen: set[tuple] = set()
        for configuration in configurations:
            interpretations = quest.backward([configuration], 1)
            if not interpretations:
                continue
            query = quest.build_sql(interpretations[0])
            identity = query.signature()
            if identity not in seen:
                seen.add(identity)
                queries.append(query)
        return queries[:k]

    return run


def backward_only_engine(quest: Quest) -> SearchEngine:
    """QUEST ranked by backward (join-path) evidence alone.

    Configurations still come from the forward decoder (something must map
    keywords to terminals) but their confidences are discarded: the ranking
    is purely the Steiner-tree score — the "backward module in isolation"
    partial result of demo message two.
    """

    def run(text: str, k: int) -> list[SelectQuery]:
        keywords = quest.keywords_of(text)
        configurations = quest.forward(keywords, k)
        flattened = [c.with_score(1.0) for c in configurations]
        interpretations = quest.backward(flattened, k)
        interpretations.sort(key=lambda i: -i.score)
        queries: list[SelectQuery] = []
        seen: set[tuple] = set()
        for interpretation in interpretations:
            query = quest.build_sql(interpretation)
            identity = query.signature()
            if identity not in seen:
                seen.add(identity)
                queries.append(query)
            if len(queries) >= k:
                break
        return queries

    return run
