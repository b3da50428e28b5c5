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
tokenised exactly once and the sources are searched one after another, in
declaration order; the final Dempster-Shafer fold over the union frame of
every source's answers runs after the last one. Concurrent callers need no
coordination here: each source engine is safe for concurrent searches.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.engine import Quest
from repro.core.explanation import Explanation
from repro.dst.belief import rank_hypotheses
from repro.dst.combine import dempster_combine
from repro.dst.mass import FrameInterning, MassFunction
from repro.errors import ExecutionError, QuestError
from repro.semantics.tokenize import tokenize_query

__all__ = ["MultiSourceQuest"]


class MultiSourceQuest:
    """Keyword search over several sources with DS result combination.

    Args:
        engines: named per-source engines.
        ignorance: per-source ignorance values (``O_E1``, ``O_E2``, ... in
            the paper); defaults to 0.3 for every source. Raising a
            source's value lowers its influence on the merged ranking.
    """

    def __init__(
        self,
        engines: dict[str, Quest],
        ignorance: dict[str, float] | None = None,
    ) -> None:
        if not engines:
            raise QuestError("multi-source search needs at least one source")
        self.engines = dict(engines)
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
        contributes nothing rather than aborting the combination. A
        storage failure (:class:`ExecutionError`) propagates: dropping
        the source would pass a partial ranking off as a complete one.
        """
        engine = self.engines[name]
        try:
            coverage = engine.evidence_coverage(keywords)
            explanations = engine.search_keywords(keywords, k)
        except ExecutionError:
            raise
        except QuestError:
            return 0.0, []
        return coverage, explanations

    def _gather(
        self, keywords: list[str], k: int
    ) -> tuple[dict[str, float], dict[str, list[Explanation]]]:
        """Run every source, in declaration order."""
        coverage: dict[str, float] = {}
        per_source: dict[str, list[Explanation]] = {}
        for name in self.engines:
            coverage[name], per_source[name] = self._search_source(
                name, keywords, k
            )
        return coverage, per_source

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
