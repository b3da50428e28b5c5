"""The four composable stages of Algorithm 1.

Each stage reads its inputs from a :class:`~repro.pipeline.context.
SearchContext`, performs one step of the paper's process and writes its
products back::

    Forward   keywords            -> configurations   (HMM + DST)
    Backward  configurations      -> interpretations  (top-k Steiner)
    Combine   configs + interps   -> ranked           (DST over join paths)
    Explain   ranked              -> explanations     (SQL + execution)

The stage bodies are the engine logic that used to live inline in
``Quest.forward`` / ``backward`` / ``combine`` / ``explain``; those methods
are now thin wrappers that run a single stage, so the public API and its
semantics are unchanged.

Stages hold no per-query state — one instance can serve concurrent runs —
and receive the :class:`~repro.core.engine.Quest` engine explicitly, which
supplies the models, settings, schema graph and wrapper.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.core.configuration import Configuration
from repro.core.explanation import Explanation
from repro.core.interpretation import (
    Interpretation,
    InterpretationFrame,
    tree_score,
)
from repro.core.query_builder import build_query, query_identity
from repro.db.fulltext import tokenize_value
from repro.db.schema import ColumnRef
from repro.dst.belief import rank_hypotheses
from repro.dst.combine import dempster_combine
from repro.dst.mass import FrameInterning, MassFunction
from repro.errors import AccessDeniedError, CombinationError, QuestError, SteinerError
from repro.hmm.states import StateKind
from repro.pipeline.context import SearchContext
from repro.steiner.topk import top_k_steiner_trees
from repro.steiner.tree import SteinerTree

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.engine import Quest

__all__ = [
    "BackwardStage",
    "CombineStage",
    "ExplainStage",
    "ForwardStage",
    "PipelineStage",
    "PostingsCheck",
]


class PipelineStage(abc.ABC):
    """One step of the search pipeline."""

    #: Stage identifier used in traces and for lookup on the pipeline.
    name: str = "stage"

    @abc.abstractmethod
    def run(self, engine: "Quest", context: SearchContext) -> None:
        """Execute the stage, mutating *context* in place."""

    @abc.abstractmethod
    def candidates(self, context: SearchContext) -> int:
        """Size of this stage's output on *context* (for the trace)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ForwardStage(PipelineStage):
    """``C <- CombinerDST(Cap, Cf, O_Cap, O_Cf)`` — keywords to configurations."""

    name = "forward"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        settings = engine.settings
        k = context.pool
        apriori: list[Configuration] = []
        feedback: list[Configuration] = []
        # Snapshot the feedback model ONCE: a concurrent
        # set_feedback_model (a mutation the serving tier supports and
        # versions) must not swap it to None between our checks and the
        # decode — this whole run uses the model it first observed.
        feedback_model = engine.feedback_model
        run_apriori = settings.use_apriori
        run_feedback = settings.use_feedback and feedback_model is not None
        # The emission matrix depends on the provider and the state space
        # only — when both operating modes decode over the same state
        # tuple, they share one (batched, deduplicated) matrix instead of
        # scoring the query twice. A foreign feedback model with its own
        # state ordering keeps its own matrix.
        shared = None
        if (
            run_apriori
            and run_feedback
            and feedback_model.states.states
            == engine.apriori_model.states.states
        ):
            shared = engine.apriori_model.emission_matrix(
                context.keywords, engine.wrapper
            )
        if run_apriori:
            apriori = engine.decode(
                context.keywords, engine.apriori_model, k, emissions=shared
            )
        if run_feedback:
            feedback = engine.decode(
                context.keywords, feedback_model, k, emissions=shared
            )

        if apriori and feedback:
            combined = self._combine_modes(engine, apriori, feedback, k)
        else:
            combined = apriori or feedback
        if not combined:
            raise QuestError("forward step produced no configurations")
        context.configurations = combined

    def candidates(self, context: SearchContext) -> int:
        return len(context.configurations)

    @staticmethod
    def _combine_modes(
        engine: "Quest",
        apriori: list[Configuration],
        feedback: list[Configuration],
        k: int,
    ) -> list[Configuration]:
        """DST combination of the a-priori and feedback decoders."""
        frame = [c.with_score(0.0) for c in apriori + feedback]
        apriori_scores = {c.with_score(0.0): c.score for c in apriori}
        feedback_scores = {c.with_score(0.0): c.score for c in feedback}
        # One shared interning: both bodies and their combination encode
        # focal bitmasks against the same hypothesis->bit mapping, so the
        # combine never re-interns a frame mid-flight. Bits follow the
        # decoders' order, not a hash-salted set's.
        interning = FrameInterning(frame)
        apriori_mass = MassFunction.from_scores(
            apriori_scores,
            engine.settings.uncertainty_apriori,
            frame,
            interning=interning,
        )
        feedback_mass = MassFunction.from_scores(
            feedback_scores,
            engine.settings.uncertainty_feedback,
            frame,
            interning=interning,
        )
        combined = dempster_combine(apriori_mass, feedback_mass)
        ranked = rank_hypotheses(combined, k)
        return [
            configuration.with_score(probability)
            for configuration, probability in ranked
        ]


class BackwardStage(PipelineStage):
    """``I <- ST(q, C, k)`` — configurations to join-path interpretations.

    Configurations whose terminals are disconnected in the schema graph
    yield no interpretation and drop out — exactly the instance-consistency
    filtering the backward step exists for. Steiner enumeration goes
    through the schema graph's result cache, so repeated terminal sets
    (across configurations and across queries) are answered without
    re-running the tree search.

    Connectivity is read off the component labels of the schema graph's
    compact snapshot (:meth:`~repro.steiner.graph.CompactGraph.connected`):
    one label lookup per terminal. A configuration whose terminals all
    lie in the graph but in different components drops out before the
    deadline check and before any Steiner call; every other one goes to
    :func:`~repro.steiner.topk.top_k_steiner_trees`, which raises for
    an empty or unknown terminal set.
    """

    name = "backward"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        k = context.tree_k
        schema = engine.schema
        compact = engine.schema_graph.compact()
        deadline = context.deadline
        interpretations: list[Interpretation] = []
        for configuration in context.configurations:
            terminals = sorted(configuration.terminals(schema), key=str)
            known = all(t in compact.index for t in terminals)
            if known and not compact.connected(terminals):
                continue
            if (
                deadline is not None
                and deadline.expired()
                and interpretations
            ):
                # Budget died with join paths already in hand: stop
                # enumerating further configurations and let the cheap
                # combine/explain stages turn them into answers.
                context.mark_degraded(
                    f"deadline: backward stage stopped after "
                    f"{len(interpretations)} interpretations"
                )
                break
            try:
                trees = top_k_steiner_trees(
                    engine.schema_graph,
                    terminals,
                    k,
                    prune_supertrees=engine.settings.prune_supertrees,
                    deadline=deadline,
                )
            except SteinerError:
                continue
            if deadline is not None and deadline.expired() and trees:
                # The enumeration itself was cut short: the trees are
                # best-so-far, not the provably cheapest k.
                context.mark_degraded(
                    "deadline: steiner enumeration truncated mid-search"
                )
            for tree in trees:
                interpretations.append(
                    Interpretation(configuration, tree, tree_score(tree.weight))
                )
        context.interpretations = interpretations

    def candidates(self, context: SearchContext) -> int:
        return len(context.interpretations)


class CombineStage(PipelineStage):
    """``E <- CombinerDST(C, I, O_C, O_I)`` — the final evidence combination.

    Forward evidence commits mass to *sets* of interpretations sharing a
    configuration (the forward step knows nothing about join paths);
    backward evidence commits mass to individual interpretations. The
    Dempster intersection concentrates belief on join paths that both a
    likely configuration and a short informative tree support.

    The stage first numbers the interpretations with per-query integer
    ids, in list order (:class:`~repro.core.interpretation.InterpretationFrame`;
    one dictionary lookup each, on the hash stored at construction). Id
    ``i`` is bit ``i`` of the shared interning, a forward focal is the OR
    of its configuration's bits and the backward body is built from the
    per-id scores, so no hash is recomputed and no ``frozenset`` is built.
    """

    name = "combine"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        interpretations = context.interpretations
        if not interpretations:
            context.ranked = []
            return
        # Rank the complete interpretation pool by default: explanations
        # that execute to empty results are dropped by the explain stage,
        # so truncating here would let filtered-out junk displace
        # executable answers further down.
        k = context.rank_k
        if k is None:
            k = max(context.pool, len(interpretations))
        frame = InterpretationFrame(context.configurations, interpretations)
        # Shared hypothesis interning for both evidence bodies (see
        # ForwardStage._combine_modes): bit i is interpretation id i.
        interning = frame.interning
        frame_mask = (1 << len(interning)) - 1

        forward_mass = MassFunction(interning=interning, frame_mask=frame_mask)
        group_masks = frame.group_masks
        supported = [
            (c, group_masks[group])
            for c, group in zip(context.configurations, frame.config_groups)
            if group in group_masks and c.score > 0.0
        ]
        total_score = sum(c.score for c, _mask in supported)
        uncertainty = engine.settings.uncertainty_forward
        if total_score > 0.0:
            budget = 1.0 - uncertainty
            for configuration, mask in supported:
                forward_mass.assign_mask(
                    mask, budget * configuration.score / total_score
                )
            if uncertainty > 0.0:
                forward_mass.assign_mask(frame_mask, uncertainty)
        else:
            forward_mass.assign_mask(frame_mask, 1.0)

        backward_mass = MassFunction.from_bit_scores(
            frame.scores, engine.settings.uncertainty_backward, interning
        )

        try:
            combined = dempster_combine(forward_mass, backward_mass)
        except CombinationError:
            # Total conflict cannot happen over a shared frame, but guard:
            # fall back to the backward ranking.
            combined = backward_mass
        ranked = rank_hypotheses(combined, k)
        context.ranked = [
            interpretation.with_score(probability)
            for interpretation, probability in ranked
        ]

    def candidates(self, context: SearchContext) -> int:
        return len(context.ranked)


class PostingsCheck:
    """One search's answers to "does this configuration match no row?".

    A configuration provably matches no row when some domain mapping's
    keyword has a distinct :func:`~repro.db.fulltext.tokenize_value`
    token with no posting in the mapped column (*has_postings* answers
    ``False``). A keyword without tokens matches nothing; it is asked as
    the empty token, which no posting holds, so an indexed column answers
    ``False`` (where the backends' narrowing answers "matches nothing")
    and an undecided source still answers ``None``.

    Built once per explain run: the lookups are memoised per (token,
    column) and the verdicts per (keyword, column), for that run only.
    """

    __slots__ = ("_has_postings", "_present", "_absent")

    def __init__(self, has_postings: Callable[[str, ColumnRef], bool | None]) -> None:
        self._has_postings = has_postings
        self._present: dict[tuple[str, ColumnRef], bool | None] = {}
        self._absent: dict[tuple[str, str, str | None], bool] = {}

    def provably_empty(self, configuration: Configuration) -> bool:
        """Whether every tree of *configuration* provably matches no row."""
        for mapping in configuration.mappings:
            state = mapping.state
            if state.kind is not StateKind.DOMAIN:
                continue
            key = (mapping.keyword, state.table, state.column)
            absent = self._absent.get(key)
            if absent is None:
                absent = self._absent[key] = self._some_token_absent(
                    mapping.keyword, ColumnRef(state.table, state.column)
                )
            if absent:
                return True
        return False

    def _some_token_absent(self, keyword: str, ref: ColumnRef) -> bool:
        present = self._present
        for token in dict.fromkeys(tokenize_value(keyword)) or ("",):
            key = (token, ref)
            if key in present:
                found = present[key]
            else:
                found = present[key] = self._has_postings(token, ref)
            if found is False:
                return True
        return False


class ExplainStage(PipelineStage):
    """``E <- QueryBuilder(E)`` — ranked interpretations to SQL answers.

    Distinct interpretations can denote the same SQL (e.g. two
    configurations differing only in schema-term kinds); only the
    best-ranked explanation per structural query survives. The
    structural identity (:meth:`~repro.db.query.SelectQuery.signature`)
    is read off the interpretation
    (:func:`~repro.core.query_builder.query_identity`) before any
    query is built, so each distinct query is built once per search and
    a duplicate costs one key lookup. When the wrapper can execute,
    explanations with fewer than ``settings.min_explanation_results``
    rows are dropped; the exact count runs backend-side through
    ``wrapper.result_count`` (a ``COUNT(*)`` pushdown on SQL backends —
    no result rows cross the storage boundary here). Both backends
    narrow every CONTAINS predicate of the count to its keyword's
    posting lists and skip the exact per-row check where a one-token
    keyword's list already decides it, so a count costs work
    proportional to the matching postings, not to the table size. The
    SQLite backend compiles each count once per query shape and binds
    the keywords as parameters. Each backend caches its counts per
    (query, data version), so a query counted again before the next
    write — by a later search, or by another engine on the same
    backend — reaches the store only once (the exactness argument is
    in :mod:`repro.storage.base`).

    Before any of that, when counts run and at least one row is
    required, each configuration is checked with a
    :class:`PostingsCheck`, and the interpretations of a provably empty
    one are skipped without building or counting a query (their number
    is ``trace.provably_empty``). The skip drops nothing the count would
    have kept:

    - a count that survives the narrowing needs a live row holding every
      token of every CONTAINS keyword in its column;
    - the postings tokenise the very values ``contains_match`` sees, and
      rows are never updated in place;
    - so a token with an empty posting list in its column means zero
      rows for every tree of that configuration;
    - two interpretations with one ``query_identity`` have the same
      predicates, so skipping one before it is marked seen cannot let a
      duplicate through.

    The existence answers come from ``wrapper.has_postings`` and are
    memoised per (token, column) for this run only, so a token added by
    a later write is looked up afresh by the next search. ``None`` (a
    hidden source, a column outside the index) decides nothing and the
    count runs as before.
    """

    name = "explain"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        settings = engine.settings
        deadline = context.deadline
        explanations: list[Explanation] = []
        seen_queries: set[tuple] = set()
        joins_of: dict[SteinerTree, frozenset] = {}
        predicates_of: dict[Configuration, frozenset] = {}
        check = (
            PostingsCheck(engine.wrapper.has_postings)
            if settings.execute_explanations and settings.min_explanation_results >= 1
            else None
        )
        skipped = 0
        for interpretation in context.ranked:
            if (
                deadline is not None
                and deadline.expired()
                and explanations
            ):
                # Budget died with answers in hand: stop executing SQL
                # for the remaining candidates and serve what exists.
                context.mark_degraded(
                    f"deadline: explain stage stopped after "
                    f"{len(explanations)} explanations"
                )
                break
            if check is not None and check.provably_empty(
                interpretation.configuration
            ):
                skipped += 1
                continue
            identity = query_identity(interpretation, joins_of, predicates_of)
            if identity in seen_queries:
                continue
            seen_queries.add(identity)
            query = build_query(engine.schema, interpretation)
            result_count: int | None = None
            if settings.execute_explanations:
                try:
                    result_count = engine.wrapper.result_count(query)
                except AccessDeniedError:
                    result_count = None
                else:
                    if result_count < settings.min_explanation_results:
                        continue
            explanations.append(
                Explanation(
                    interpretation=interpretation,
                    query=query,
                    probability=interpretation.score,
                    result_count=result_count,
                )
            )
            if context.limit is not None and len(explanations) >= context.limit:
                break
        context.explanations = explanations
        context.trace.provably_empty += skipped

    def candidates(self, context: SearchContext) -> int:
        return len(context.explanations)

