"""Tests for the staged pipeline: wrapper equivalence, traces, composition."""

import pytest

from repro.core import Quest
from repro.errors import QuestError
from repro.pipeline import (
    BackwardStage,
    CombineStage,
    ExplainStage,
    ForwardStage,
    PipelineStage,
    SearchContext,
    SearchPipeline,
)


@pytest.fixture()
def engine(mini_wrapper) -> Quest:
    return Quest(mini_wrapper)


class TestStageWrappers:
    """Quest's public stage methods must equal direct stage execution."""

    def test_search_equals_staged_run(self, engine):
        query = "kubrick movies"
        explanations = engine.search(query)
        keywords = engine.keywords_of(query)
        pool = engine.settings.k * engine.settings.candidate_factor
        configurations = engine.forward(keywords, pool)
        interpretations = engine.backward(configurations, engine.settings.k)
        ranked = engine.combine(
            configurations,
            interpretations,
            max(pool, len(interpretations)),
        )
        assert explanations == engine.explain(ranked, limit=engine.settings.k)

    def test_forward_matches_forward_stage(self, engine):
        keywords = ["kubrick", "movies"]
        context = SearchContext(keywords=keywords, pool=5)
        ForwardStage().run(engine, context)
        assert engine.forward(keywords, 5) == context.configurations

    def test_forward_raises_without_configurations(self, engine):
        settings = engine.settings.updated(use_feedback=True, use_apriori=False)
        starved = Quest(engine.wrapper, settings)
        with pytest.raises(QuestError):
            starved.forward(["kubrick"])

    def test_backward_matches_backward_stage(self, engine):
        configurations = engine.forward(["kubrick", "movies"], 5)
        context = SearchContext(configurations=configurations, tree_k=3)
        BackwardStage().run(engine, context)
        assert engine.backward(configurations, 3) == context.interpretations

    def test_combine_and_explain_match_stages(self, engine):
        configurations = engine.forward(["kubrick", "movies"], 5)
        interpretations = engine.backward(configurations, 3)
        context = SearchContext(
            configurations=configurations,
            interpretations=interpretations,
            rank_k=10,
        )
        CombineStage().run(engine, context)
        assert engine.combine(configurations, interpretations, 10) == context.ranked
        ExplainStage().run(engine, context)
        assert engine.explain(context.ranked) == context.explanations

    def test_combine_of_nothing_is_empty(self, engine):
        assert engine.combine([], []) == []


class TestTrace:
    def test_search_records_trace(self, engine):
        trace = engine.search_context("kubrick movies").trace
        assert trace is not None
        assert [report.stage for report in trace.stages] == [
            "forward",
            "backward",
            "combine",
            "explain",
        ]
        assert trace.keywords == ("kubrick", "movies")
        assert all(report.seconds >= 0.0 for report in trace.stages)
        assert trace.total_seconds == pytest.approx(
            sum(report.seconds for report in trace.stages)
        )
        assert trace.stage("explain").candidates == len(
            engine.search("kubrick movies")
        )

    def test_trace_counts_cache_deltas(self, engine):
        first = engine.search_context("kubrick movies").trace
        second = engine.search_context("kubrick movies").trace
        # Cold run computes every emission vector; warm run hits for all.
        assert first.emission_cache.misses >= 1
        assert second.emission_cache.misses == 0
        assert second.emission_cache.hits >= 1
        assert second.steiner_cache.misses == 0
        assert "emissions" in second.summary()

    def test_unknown_stage_lookup_raises(self, engine):
        trace = engine.search_context("kubrick movies").trace
        with pytest.raises(KeyError):
            trace.stage("nonexistent")


class TestPipelineComposition:
    def test_default_stage_order(self):
        pipeline = SearchPipeline()
        assert [stage.name for stage in pipeline.stages] == [
            "forward",
            "backward",
            "combine",
            "explain",
        ]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(QuestError):
            SearchPipeline(stages=[])

    def test_unknown_stage_rejected(self):
        with pytest.raises(QuestError):
            SearchPipeline().stage("rewrite")

    def test_custom_stage_composition(self, mini_wrapper):
        calls = []

        class RecordingStage(PipelineStage):
            name = "recording"

            def __init__(self, inner):
                self.inner = inner

            def run(self, engine, context):
                calls.append(self.inner.name)
                self.inner.run(engine, context)

            def candidates(self, context):
                return self.inner.candidates(context)

        pipeline = SearchPipeline(
            stages=[
                RecordingStage(ForwardStage()),
                RecordingStage(BackwardStage()),
                RecordingStage(CombineStage()),
                RecordingStage(ExplainStage()),
            ]
        )
        engine = Quest(mini_wrapper, pipeline=pipeline)
        reference = Quest(mini_wrapper)
        assert engine.search("kubrick movies") == reference.search("kubrick movies")
        assert calls == ["forward", "backward", "combine", "explain"]

    def test_run_requires_query_or_keywords(self, engine):
        with pytest.raises(QuestError):
            engine.pipeline.run(engine)
        with pytest.raises(QuestError):
            engine.pipeline.run(engine, keywords=[])

    def test_run_many_strict_raises_and_lax_collects(self, engine):
        with pytest.raises(QuestError):
            engine.pipeline.run_many(engine, ["kubrick", "???"])
        contexts = engine.pipeline.run_many(
            engine, ["kubrick", "???"], strict=False
        )
        assert contexts[0].error is None
        assert contexts[0].explanations
        assert isinstance(contexts[1].error, QuestError)
        assert contexts[1].explanations == []
        # Failures still report the time they burned (evaluate() parity).
        assert contexts[1].trace.stages
        assert contexts[1].trace.stage("error").seconds >= 0.0

    def test_run_many_lax_absorbs_wrapper_failures(self, engine, monkeypatch):
        # Like the evaluate() loop, a lax batch must score ANY per-query
        # failure as a miss, not just library errors.
        original = type(engine.wrapper).compute_emission_scores
        original_batch = type(engine.wrapper).compute_emission_matrix

        def flaky(self, keyword, states):
            if keyword == "poison":
                raise ValueError("wrapper blew up")
            return original(self, keyword, states)

        def flaky_batch(self, keywords, states):
            if "poison" in keywords:
                raise ValueError("wrapper blew up")
            return original_batch(self, keywords, states)

        monkeypatch.setattr(type(engine.wrapper), "compute_emission_scores", flaky)
        monkeypatch.setattr(
            type(engine.wrapper), "compute_emission_matrix", flaky_batch
        )
        contexts = engine.pipeline.run_many(
            engine, ["kubrick", "poison"], strict=False
        )
        assert contexts[0].explanations
        assert isinstance(contexts[1].error, ValueError)
        assert contexts[1].explanations == []
        with pytest.raises(ValueError):
            engine.pipeline.run_many(engine, ["poison"])


class TestExplainIdentity:
    """The explain stage's dedup key is the built query's signature."""

    def test_query_identity_equals_built_signature(self):
        from repro import FullAccessWrapper
        from repro.core.query_builder import build_query, query_identity
        from repro.datasets import mondial

        db = mondial.generate(countries=10, seed=23)
        engine = Quest(FullAccessWrapper(db))
        checked = duplicates = 0
        for gold in mondial.workload(db, queries_per_kind=3, seed=5):
            ranked = engine.search_context(gold.text).ranked
            joins_of, predicates_of = {}, {}
            seen = set()
            for interpretation in ranked:
                identity = query_identity(interpretation, joins_of, predicates_of)
                query = build_query(engine.schema, interpretation)
                assert identity == query.signature()
                duplicates += identity in seen
                seen.add(identity)
                checked += 1
        assert checked >= 100 and duplicates > 0
