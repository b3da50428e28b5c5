"""Per-query state threaded through the staged search pipeline.

A :class:`SearchContext` carries everything one query accumulates on its
way through ``Forward -> Backward -> Combine -> Explain``: the tokenised
keywords, the stage products (configurations, interpretations, ranked
interpretations, explanations) and a :class:`SearchTrace` diagnostic with
per-stage timings, candidate counts and cache hit/miss deltas.

Only type names are imported from ``repro.core`` here, and only for the
checker: at runtime this module must stay import-light because the core
engine and the pipeline reference each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.configuration import Configuration
    from repro.core.explanation import Explanation
    from repro.core.interpretation import Interpretation
    from repro.resilience import Deadline

__all__ = ["SearchContext", "SearchTrace", "StageReport"]


@dataclass(frozen=True)
class StageReport:
    """Timing and output size of one executed stage."""

    stage: str
    seconds: float
    candidates: int

    def __str__(self) -> str:
        return f"{self.stage}: {self.candidates} candidates in {self.seconds:.4f}s"


@dataclass
class SearchTrace:
    """Diagnostics of one pipeline run.

    Attributes:
        query: the raw query text (reconstructed from keywords when the
            run was started from pre-tokenised keywords).
        keywords: the tokenised query.
        stages: one :class:`StageReport` per executed stage, in order.
        emission_cache: emission-vector cache hits/misses during this run.
        steiner_cache: Steiner-result cache hits/misses during this run.
        steiner_subset_cache: always zero. The engine has no Steiner
            subset-row cache; the field stays because ``perfbench``'s
            span export still reads it.
        notes: free-form engine decisions recorded for this run (e.g. the
            batch fan-out degrading to sequential on a single-CPU host).
        degraded: the run was served on a degraded path — its deadline
            expired mid-pipeline (best-so-far results were returned
            instead of running to completion) or a fallback route was
            taken. Why is always recorded in ``notes``. Degraded results
            are never published to the serving tier's result cache.
        provably_empty: interpretations the explain stage skipped without
            building or counting their SQL, because a CONTAINS token of
            their configuration has no posting in its column (see
            :class:`~repro.pipeline.stages.ExplainStage`).
        stale_revision: the engine revision this ranking was computed at,
            stamped by the serving tier *only* when the ranking is served
            from the revision-stale fallback cache — ``None`` on every
            fresh response. Lets operators (and the ``/metrics``
            endpoint) see exactly how far behind a stale answer is.

    The cache deltas are *exact per run*: the pipeline installs a
    context-local :class:`~repro.cache.CacheRecorder` around its stages,
    so every lookup on the shared caches is credited to the run that
    issued it. Concurrent runs sharing a wrapper or graph (threaded
    multi-source search, the serving tier) each see only their own
    counts; the ``size``/``maxsize`` fields describe the shared cache at
    the moment the run completed.
    """

    query: str
    keywords: tuple[str, ...] = ()
    stages: list[StageReport] = field(default_factory=list)
    emission_cache: CacheStats = field(default_factory=CacheStats)
    steiner_cache: CacheStats = field(default_factory=CacheStats)
    steiner_subset_cache: CacheStats = field(default_factory=CacheStats)
    notes: list[str] = field(default_factory=list)
    degraded: bool = False
    provably_empty: int = 0
    stale_revision: Any = None

    @property
    def total_seconds(self) -> float:
        """Wall time summed over the executed stages."""
        return sum(report.seconds for report in self.stages)

    def stage(self, name: str) -> StageReport:
        """The report for stage *name* (raises ``KeyError`` if absent)."""
        for report in self.stages:
            if report.stage == name:
                return report
        raise KeyError(f"no stage named {name!r} in trace")

    def summary(self) -> str:
        """A one-line human-readable digest of the run."""
        stages = " | ".join(
            f"{r.stage}={r.candidates}@{r.seconds:.4f}s" for r in self.stages
        )
        return (
            f"{self.query!r}: {stages} | "
            f"emissions[{self.emission_cache}] steiner[{self.steiner_cache}] "
            f"explain[skipped {self.provably_empty} provably empty]"
        )


@dataclass
class SearchContext:
    """One query's mutable state, produced stage by stage.

    Attributes:
        query: raw query text (``None`` when a stage runs standalone).
        keywords: tokenised keywords, set before the forward stage.
        k: number of explanations the search finally returns.
        pool: forward-stage candidate budget (``k * candidate_factor``).
        tree_k: Steiner trees enumerated per configuration.
        rank_k: hypotheses kept by the combine stage; ``None`` means
            "rank the full pool" (``max(pool, len(interpretations))``).
        limit: cap on emitted explanations (``None`` = no cap).
        configurations: forward-stage output.
        interpretations: backward-stage output.
        ranked: combine-stage output (re-scored interpretations).
        explanations: explain-stage output — the final answers.
        deadline: the request's time budget (``None`` = unbounded). Each
            stage checks remaining budget and degrades cooperatively —
            see :mod:`repro.resilience.deadline`.
        trace: per-stage diagnostics for this run.
        error: the failure that aborted the run, when batch callers opt
            into collecting errors instead of raising.
    """

    query: str | None = None
    keywords: list[str] = field(default_factory=list)
    k: int = 10
    pool: int = 10
    tree_k: int = 10
    rank_k: int | None = None
    limit: int | None = None
    configurations: list["Configuration"] = field(default_factory=list)
    interpretations: list["Interpretation"] = field(default_factory=list)
    ranked: list["Interpretation"] = field(default_factory=list)
    explanations: list["Explanation"] = field(default_factory=list)
    deadline: "Deadline | None" = None
    trace: SearchTrace = field(default_factory=lambda: SearchTrace(query=""))
    error: Exception | None = None

    @classmethod
    def for_query(
        cls,
        query: str | None,
        keywords: list[str],
        k: int,
        pool: int,
        tree_k: int,
        deadline: "Deadline | None" = None,
    ) -> "SearchContext":
        """A context primed for a full pipeline run."""
        text = query if query is not None else " ".join(keywords)
        return cls(
            query=query,
            keywords=list(keywords),
            k=k,
            pool=pool,
            tree_k=tree_k,
            limit=k,
            deadline=deadline,
            trace=SearchTrace(query=text, keywords=tuple(keywords)),
        )

    def mark_degraded(self, note: str) -> None:
        """Flag this run as degraded, recording *note* once in the trace."""
        self.trace.degraded = True
        if note not in self.trace.notes:
            self.trace.notes.append(note)
