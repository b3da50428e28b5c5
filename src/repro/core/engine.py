"""The QUEST engine: Algorithm 1 end to end.

``search`` runs the three steps of the paper's process::

    Cap <- HMM_a_priori(q, k)   |   Cf <- HMM_feedback(q, k)
    C   <- CombinerDST(Cap, Cf, O_Cap, O_Cf)      # forward
    I   <- ST(q, C, k)                            # backward
    E   <- CombinerDST(C, I, O_C, O_I)            # explanations
    E   <- QueryBuilder(E)

Execution is delegated to a :class:`~repro.pipeline.runner.SearchPipeline`
of composable stages (``repro.pipeline``); every stage is still exposed as
a public method — ``forward``/``backward``/``combine``/``explain`` are thin
wrappers over the corresponding stage — so experiments can inspect partial
results exactly as before (demo message two compares the modules in
isolation).

Diagnostics are *returned*, not parked on the engine: ``search_context``
(and ``search_many_contexts``) hand back the full
:class:`~repro.pipeline.context.SearchContext`, whose ``trace`` carries
per-stage timings, candidate counts and exact cache hit/miss deltas for
that one run. This is what makes one shared engine safe for concurrent
callers — nothing about a query's result or its diagnostics lives in
shared mutable engine state. ``search_many`` batches a workload through
the same pipeline, in process, so the emission and Steiner caches
amortise repeated work across queries; multi-core serving forks whole
engines instead (:class:`~repro.service.prefork.PreforkServer`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.configuration import Configuration, KeywordMapping
from repro.core.explanation import Explanation
from repro.core.interpretation import Interpretation
from repro.core.query_builder import build_query
from repro.core.settings import QuestSettings
from repro.db.query import SelectQuery
from repro.errors import QuestError
from repro.forksafe import register_lock_holder
from repro.hmm.apriori import AprioriWeights, build_apriori_model
from repro.resilience import Deadline
from repro.hmm.model import HiddenMarkovModel
from repro.hmm.states import StateSpace
from repro.hmm.viterbi import list_viterbi
from repro.semantics.tokenize import tokenize_query
from repro.steiner.tree import SteinerTree
from repro.steiner.weights import build_schema_graph
from repro.wrapper.base import SourceWrapper

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.pipeline.context import SearchContext
    from repro.pipeline.runner import SearchPipeline

__all__ = ["Quest"]


class Quest:
    """A QUEST search engine bound to one data source.

    Args:
        wrapper: the source wrapper (full or hidden access).
        settings: engine parameters; defaults to :class:`QuestSettings`.
        apriori_weights: heuristic affinities for the a-priori HMM.
        feedback_model: a trained feedback HMM (enables the feedback mode
            together with ``settings.use_feedback``); usually supplied by
            :class:`repro.feedback.FeedbackTrainer`.
        pipeline: a custom stage composition; defaults to the canonical
            ``Forward -> Backward -> Combine -> Explain`` pipeline.
    """

    def __init__(
        self,
        wrapper: SourceWrapper,
        settings: QuestSettings | None = None,
        apriori_weights: AprioriWeights | None = None,
        feedback_model: HiddenMarkovModel | None = None,
        pipeline: "SearchPipeline | None" = None,
    ) -> None:
        # Imported here, not at module level: the pipeline stages import
        # the core data types, so a module-level import would be circular.
        from repro.pipeline.runner import SearchPipeline

        self.wrapper = wrapper
        self.settings = settings if settings is not None else QuestSettings()
        self.schema = wrapper.schema
        self.states = StateSpace(self.schema)
        self.apriori_model = build_apriori_model(
            self.schema, self.states, apriori_weights
        )
        self.feedback_model: HiddenMarkovModel | None = None
        self.schema_graph = build_schema_graph(
            self.schema,
            wrapper.catalog,
            mutual_information=self.settings.mutual_information_weights,
        )
        self.pipeline = pipeline if pipeline is not None else SearchPipeline()
        #: Guards the feedback model and its revision; re-created in a
        #: forked child (a sibling thread may hold it across the fork).
        self._state_lock = threading.Lock()
        register_lock_holder(self, _reset_engine_lock)
        #: Bumped on every feedback-model change; part of :attr:`version`.
        self._feedback_revision = 0
        if feedback_model is not None:
            # Through the setter, so the constructor cannot bypass the
            # foreign-state-space validation.
            self.set_feedback_model(feedback_model)

    # -- feedback plumbing ---------------------------------------------------

    def set_feedback_model(self, model: HiddenMarkovModel | None) -> None:
        """Install (or clear) the trained feedback HMM.

        The model must be trained over *this* engine's state space: the
        same states in the same order (decoded state indexes are
        positional). A foreign space is rejected even when its length
        happens to match — emission vectors and transition rows would
        silently score the wrong terms.
        """
        if model is not None and model.states is not self.states:
            if (
                len(model.states) != len(self.states)
                or model.states.states != self.states.states
            ):
                raise QuestError("feedback model uses a different state space")
        with self._state_lock:
            self.feedback_model = model
            self._feedback_revision += 1

    # -- result-affecting state version --------------------------------------

    @property
    def version(self) -> tuple:
        """Revision of every result-affecting mutable input.

        ``(feedback revision, source mutation counter, schema-graph
        revision, settings)`` — any change through the engine's own
        mutation surfaces (source writes, ``set_feedback_model``,
        ``add_edge``, reassigning :attr:`settings`) moves at least one
        component, so the serving tier's result cache cannot serve
        across them. Out-of-band surgery on engine internals (e.g.
        swapping :attr:`pipeline` for one with different semantics) is
        not tracked; the serving tier's TTL bounds that exposure.
        """
        return (
            self._feedback_revision,
            self.wrapper.source_version,
            self.schema_graph.version,
            self.settings,
        )

    # -- step 1: forward -------------------------------------------------------

    def decode(
        self,
        keywords: list[str],
        model: HiddenMarkovModel,
        k: int,
        emissions: np.ndarray | None = None,
    ) -> list[Configuration]:
        """Top-k configurations from one HMM via List Viterbi.

        Scores are the softmax of the joint log-probabilities over the
        decoded list, i.e. each configuration's probability relative to its
        alternatives — the quantity the paper normalises into DS masses.

        *emissions* lets the forward stage decode the a-priori and
        feedback models from one shared emission matrix (the matrix
        depends only on the provider and the state space, not on model
        parameters); when omitted it is computed here, batched per
        ``settings.columnar_index``.
        """
        if emissions is None:
            emissions = model.emission_matrix(
                keywords, self.wrapper, batched=self.settings.columnar_index
            )
        paths = list_viterbi(
            model, emissions, k, vectorized=self.settings.vectorized_viterbi
        )
        if not paths:
            return []
        log_probs = np.array([p.log_probability for p in paths])
        log_probs -= log_probs.max()
        weights = np.exp(log_probs)
        weights /= weights.sum()
        configurations = []
        for path, weight in zip(paths, weights):
            mappings = tuple(
                KeywordMapping(keyword, self.states[state_index])
                for keyword, state_index in zip(keywords, path.states)
            )
            configurations.append(Configuration(mappings, float(weight)))
        return configurations

    def forward(self, keywords: list[str], k: int | None = None) -> list[Configuration]:
        """The combined forward step: a-priori and/or feedback mode + DST."""
        return self.pipeline.forward(self, keywords, k or self.settings.k)

    # -- step 2: backward --------------------------------------------------------

    def backward(
        self, configurations: list[Configuration], k: int | None = None
    ) -> list[Interpretation]:
        """Top-k join paths (interpretations) for each configuration."""
        return self.pipeline.backward(self, configurations, k or self.settings.k)

    # -- step 3: combination --------------------------------------------------------

    def combine(
        self,
        configurations: list[Configuration],
        interpretations: list[Interpretation],
        k: int | None = None,
    ) -> list[Interpretation]:
        """``E <- CombinerDST(C, I, O_C, O_I)``."""
        return self.pipeline.combine(
            self, configurations, interpretations, k or self.settings.k
        )

    # -- step 4: query building --------------------------------------------------------

    def explain(
        self, interpretations: list[Interpretation], limit: int | None = None
    ) -> list[Explanation]:
        """Render ranked interpretations as SQL, optionally executing them."""
        return self.pipeline.explain(self, interpretations, limit)

    # -- the full pipeline --------------------------------------------------------

    def evidence_coverage(self, keywords: list[str]) -> float:
        """Fraction of keywords with non-zero emission evidence.

        A keyword the source cannot relate to any database term at all
        (no full-text hit, no schema-name match, no shape evidence) still
        gets decoded — onto an arbitrary state — but the resulting
        explanations carry no real signal. Multi-source combination uses
        this coverage to discount sources that do not understand part of
        the query.
        """
        if not keywords:
            return 0.0
        if self.settings.columnar_index:
            matrix = self.wrapper.emission_matrix(list(keywords), self.states)
            return int(np.count_nonzero(matrix.max(axis=1) > 0.0)) / len(keywords)
        covered = sum(
            1
            for keyword in keywords
            if float(
                np.max(self.wrapper.emission_scores(keyword, self.states))
            )
            > 0.0
        )
        return covered / len(keywords)

    def keywords_of(self, query: str) -> list[str]:
        """Tokenise a raw keyword query (exposed for feedback tooling)."""
        keywords = tokenize_query(query)
        if not keywords:
            raise QuestError(f"query contains no usable keywords: {query!r}")
        return keywords

    def search_context(
        self,
        query: str | None = None,
        keywords: Sequence[str] | None = None,
        k: int | None = None,
        deadline: "Deadline | None" = None,
    ) -> "SearchContext":
        """Answer one query, returning its full :class:`SearchContext`.

        The concurrency-safe entry point: everything the run produced —
        explanations, intermediate stage products and the exact
        :class:`~repro.pipeline.context.SearchTrace` — comes back on the
        returned context, owned solely by the caller. Any number of
        threads may call this on one shared engine.

        *deadline* (or, when absent, ``settings.default_deadline_ms``)
        bounds the run: stages degrade cooperatively to best-so-far
        answers with ``trace.degraded`` set, or raise
        :class:`~repro.errors.DeadlineExceededError` when the budget dies
        before anything salvageable exists.
        """
        if deadline is None:
            deadline = Deadline.from_ms(self.settings.default_deadline_ms)
        # The kwarg is passed only when a budget exists, so pipeline
        # stand-ins predating deadlines keep working unbounded.
        extra = {} if deadline is None else {"deadline": deadline}
        return self.pipeline.run(
            self, query=query, keywords=keywords, k=k, **extra
        )

    def search(self, query: str, k: int | None = None) -> list[Explanation]:
        """Answer a keyword query with the top-k explanations.

        Intermediate stages over-generate by ``settings.candidate_factor``
        so that the final combination and the empty-result filter choose
        from a wider pool than the k eventually returned.
        """
        return self.search_context(query=query, k=k).explanations

    def search_keywords(
        self, keywords: Sequence[str], k: int | None = None
    ) -> list[Explanation]:
        """``search`` over pre-tokenised keywords.

        Batch callers (multi-source search) tokenise a query once and fan
        the keyword list out to every source engine through this entry
        point, instead of re-tokenising per source.
        """
        return self.search_context(keywords=keywords, k=k).explanations

    def search_many(
        self,
        queries: Sequence[str],
        k: int | None = None,
        strict: bool = True,
    ) -> list[list[Explanation]]:
        """Answer a workload of queries, amortising work across them.

        Queries run back to back through the pipeline while the wrapper's
        emission cache and the schema graph's Steiner cache persist, so a
        workload with repeated keywords or terminal sets skips the
        corresponding recomputation.

        Args:
            queries: raw query texts.
            k: explanations per query (defaults to ``settings.k``).
            strict: when ``False``, a query that raises (a
                :class:`QuestError` or any wrapper failure) yields an
                empty result list instead of aborting the batch.

        Returns:
            One ranked explanation list per query, in input order —
            element-wise identical to calling :meth:`search` per query.
        """
        return [
            context.explanations
            for context in self.search_many_contexts(queries, k=k, strict=strict)
        ]

    def search_many_contexts(
        self,
        queries: Sequence[str],
        k: int | None = None,
        strict: bool = True,
    ) -> list["SearchContext"]:
        """``search_many`` returning one :class:`SearchContext` per query.

        The concurrency-safe batch entry point: callers own the returned
        contexts outright, and each context's trace is exact for its
        query.
        """
        return self.pipeline.run_many(self, queries, k=k, strict=strict)

    # -- diagnostics --------------------------------------------------------

    def trivial_tree(self, configuration: Configuration) -> SteinerTree | None:
        """The empty tree when a configuration touches a single table."""
        terminals = configuration.terminals(self.schema)
        if len({t.table for t in terminals}) == 1:
            return SteinerTree(frozenset(terminals), frozenset(), 0.0)
        return None

    def build_sql(self, interpretation: Interpretation) -> SelectQuery:
        """Build (without executing) the SQL for one interpretation."""
        return build_query(self.schema, interpretation)

    def __repr__(self) -> str:
        return (
            f"Quest(schema={self.schema.name!r}, states={len(self.states)}, "
            f"graph_edges={self.schema_graph.edge_count})"
        )


def _reset_engine_lock(engine: "Quest") -> None:
    engine._state_lock = threading.Lock()

