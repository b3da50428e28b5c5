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
from typing import TYPE_CHECKING

from repro.core.configuration import Configuration
from repro.core.explanation import Explanation
from repro.core.interpretation import Interpretation, tree_score
from repro.core.query_builder import build_query
from repro.dst.belief import rank_hypotheses
from repro.dst.combine import dempster_combine
from repro.dst.mass import FrameInterning, MassFunction
from repro.errors import AccessDeniedError, CombinationError, QuestError, SteinerError
from repro.pipeline.context import SearchContext
from repro.steiner.topk import top_k_steiner_trees

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.engine import Quest

__all__ = [
    "BackwardStage",
    "CombineStage",
    "ExplainStage",
    "ForwardStage",
    "PipelineStage",
]


def _pushdown_allowed(context: SearchContext, backend: object) -> bool:
    """Whether the backend's optional SQL pushdown surfaces may be used.

    When the backend carries a circuit breaker and it refuses the call,
    the stage transparently takes the in-process route instead — the
    bit-identical fallback the parity flags guarantee — and records the
    decision in the trace. The run is *not* marked degraded: answers are
    unaffected, only the route changed.
    """
    breaker = getattr(backend, "breaker", None)
    if breaker is None or breaker.allow():
        return True
    note = f"sql pushdown bypassed: circuit {breaker.name!r} {breaker.state}"
    if note not in context.trace.notes:
        context.trace.notes.append(note)
    return False


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
                context.keywords,
                engine.wrapper,
                batched=settings.columnar_index,
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
        frame = frozenset(c.with_score(0.0) for c in apriori + feedback)
        apriori_scores = {c.with_score(0.0): c.score for c in apriori}
        feedback_scores = {c.with_score(0.0): c.score for c in feedback}
        # One shared interning: both bodies and their combination encode
        # focal bitmasks against the same hypothesis->bit mapping, so the
        # combine never re-interns a frame mid-flight.
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
        combined = dempster_combine(
            apriori_mass, feedback_mass, bitmask=engine.settings.bitmask_dst
        )
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

    The connectivity prefilter is answered once per run for *all*
    configurations, through whichever capability the settings enable:

    - ``batched_shortest_paths`` / ``steiner_plan_cache``: per-terminal
      distance rows come from one vectorised multi-source pass (reusing
      rows already in the plan cache), and connectivity is a finite-ness
      check on them;
    - else ``sql_pushdown`` (and a backend with graph pushdown):
      reachable component sets come from recursive CTEs over the
      backend's mirrored edge relation, one per distinct component
      touched;
    - neither: each ``top_k_steiner_trees`` call checks for itself, as
      the reference kernels always did.

    Whichever mode answers, the surviving configurations — and the trees
    enumerated for them — are identical: connectivity has one answer, and
    the Steiner call is told ``assume_connected`` only when the prefilter
    has already established it.
    """

    name = "backward"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        k = context.tree_k
        settings = engine.settings
        configs = [
            (configuration, sorted(configuration.terminals(engine.schema), key=str))
            for configuration in context.configurations
        ]
        terminal_sets = [terminals for _configuration, terminals in configs]
        backend = getattr(engine.wrapper, "backend", None)
        if settings.batched_shortest_paths or settings.steiner_plan_cache:
            connected = self._prefilter_batched(engine, terminal_sets)
        elif (
            settings.sql_pushdown
            and backend is not None
            and getattr(backend, "supports_graph_pushdown", False)
            and _pushdown_allowed(context, backend)
        ):
            connected = self._prefilter_pushdown(engine, backend, terminal_sets)
        else:
            connected = [None] * len(configs)

        deadline = context.deadline
        interpretations: list[Interpretation] = []
        for (configuration, terminals), is_connected in zip(configs, connected):
            if is_connected is False:
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
                    prune_supertrees=settings.prune_supertrees,
                    interned=settings.fast_steiner,
                    assume_connected=bool(is_connected),
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

    @staticmethod
    def _prefilter_pushdown(
        engine: "Quest", backend, terminal_sets: list[list]
    ) -> list[bool | None]:
        """Per-configuration connectivity via backend reachability CTEs.

        Component sets are fetched once per distinct component touched
        this run (every member indexes the same set afterwards), so the
        number of round-trips is bounded by the number of components, not
        configurations. ``None`` marks sets the Steiner call must judge
        itself (empty, or containing unknown terminals).
        """
        graph = engine.schema_graph
        component_of: dict = {}
        verdicts: list[bool | None] = []
        for terminals in terminal_sets:
            if not terminals or any(t not in graph for t in terminals):
                verdicts.append(None)
                continue
            if len(terminals) == 1:
                verdicts.append(True)
                continue
            first = terminals[0]
            component = component_of.get(first)
            if component is None:
                component = backend.connected_nodes(graph, first)
                for node in component:
                    component_of[node] = component
            verdicts.append(all(t in component for t in terminals))
        return verdicts

    @staticmethod
    def _prefilter_batched(
        engine: "Quest", terminal_sets: list[list]
    ) -> list[bool | None]:
        """Per-configuration connectivity from batched distance rows.

        All of the run's terminals get their single-source distance rows
        in one :meth:`~repro.steiner.graph.CompactGraph.distance_matrix`
        pass (``batched_shortest_paths``), stored as singleton rows in
        the plan cache when ``steiner_plan_cache`` is on — so the rows
        the prefilter reads are the very rows Dreyfus-Wagner base cases
        reuse later. A set is connected iff every member's distance from
        the first member is finite.
        """
        from repro.steiner.plancache import PlanEntry

        graph = engine.schema_graph
        settings = engine.settings
        compact = graph.compact()
        index = compact.index
        known = sorted(
            {t for terminals in terminal_sets for t in terminals if t in index},
            key=str,
        )
        row_of: dict = {}
        if known:
            cache = graph.plan_cache if settings.steiner_plan_cache else None
            # Rows are shared with the DP base cases, so they carry the
            # same (subset, snapshot topology version) keys.
            cache_version = compact.version
            if cache is not None:
                cache.trim()
                missing = []
                for terminal in known:
                    entry = cache.get(
                        (frozenset((index[terminal],)), cache_version)
                    )
                    if entry is None:
                        missing.append(terminal)
                    else:
                        row_of[terminal] = entry.costs
            else:
                missing = list(known)
            if missing:
                indices = [index[t] for t in missing]
                if settings.batched_shortest_paths:
                    distances, _predecessors = compact.distance_matrix(indices)
                    rows = [distances[i].tolist() for i in range(len(missing))]
                else:
                    rows = [compact.dijkstra(i)[0] for i in indices]
                for terminal, row in zip(missing, rows):
                    row_of[terminal] = row
                    if cache is not None:
                        cache.put(
                            (frozenset((index[terminal],)), cache_version),
                            PlanEntry(costs=tuple(row)),
                        )

        verdicts: list[bool | None] = []
        infinity = float("inf")
        for terminals in terminal_sets:
            if not terminals or any(t not in index for t in terminals):
                verdicts.append(None)
                continue
            row = row_of[terminals[0]]
            verdicts.append(
                all(row[index[t]] < infinity for t in terminals[1:])
            )
        return verdicts

    def candidates(self, context: SearchContext) -> int:
        return len(context.interpretations)


class CombineStage(PipelineStage):
    """``E <- CombinerDST(C, I, O_C, O_I)`` — the final evidence combination.

    Forward evidence commits mass to *sets* of interpretations sharing a
    configuration (the forward step knows nothing about join paths);
    backward evidence commits mass to individual interpretations. The
    Dempster intersection concentrates belief on join paths that both a
    likely configuration and a short informative tree support.
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
        frame = frozenset(interpretations)
        # Shared hypothesis interning for both evidence bodies (see
        # ForwardStage._combine_modes).
        interning = FrameInterning(frame)

        forward_mass = MassFunction(frame=frame, interning=interning)
        by_configuration: dict[Configuration, set[Interpretation]] = {}
        for interpretation in interpretations:
            by_configuration.setdefault(
                interpretation.configuration, set()
            ).add(interpretation)
        supported = [
            c
            for c in context.configurations
            if c in by_configuration and c.score > 0.0
        ]
        total_score = sum(c.score for c in supported)
        if total_score > 0.0:
            budget = 1.0 - engine.settings.uncertainty_forward
            for configuration in supported:
                forward_mass.assign(
                    frozenset(by_configuration[configuration]),
                    budget * configuration.score / total_score,
                )
            if engine.settings.uncertainty_forward > 0.0:
                forward_mass.assign(frame, engine.settings.uncertainty_forward)
        else:
            forward_mass = MassFunction.vacuous(frame, interning=interning)

        backward_scores = {i: i.score for i in interpretations}
        backward_mass = MassFunction.from_scores(
            backward_scores,
            engine.settings.uncertainty_backward,
            frame,
            interning=interning,
        )

        try:
            combined = dempster_combine(
                forward_mass, backward_mass, bitmask=engine.settings.bitmask_dst
            )
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


class ExplainStage(PipelineStage):
    """``E <- QueryBuilder(E)`` — ranked interpretations to SQL answers.

    Distinct interpretations can denote the same SQL (e.g. two
    configurations differing only in schema-term kinds); only the
    best-ranked explanation per structural query survives. When the
    wrapper can execute, explanations with fewer than
    ``settings.min_explanation_results`` rows are dropped; the exact
    count runs backend-side through ``wrapper.result_count`` (a
    ``COUNT(*)`` pushdown on SQL backends — no result rows cross the
    storage boundary here). Both backends narrow every CONTAINS
    predicate of the count to its keyword's posting lists before the
    exact per-row check, so a count costs work proportional to the
    matching postings, not to the table size.
    """

    name = "explain"

    def run(self, engine: "Quest", context: SearchContext) -> None:
        settings = engine.settings
        deadline = context.deadline
        explanations: list[Explanation] = []
        seen_queries: set[tuple] = set()
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
            query = build_query(engine.schema, interpretation)
            identity = query.signature()
            if identity in seen_queries:
                continue
            seen_queries.add(identity)
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

    def candidates(self, context: SearchContext) -> int:
        return len(context.explanations)
