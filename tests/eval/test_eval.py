"""Tests for metrics, the harness and reporting."""

import pytest

from repro.db import Comparison, Predicate, SelectQuery, TableRef
from repro.eval import (
    evaluate,
    format_results,
    format_table,
    hit_list,
    mean,
    ndcg_at_k,
    precision_at_k,
    reciprocal_rank,
    success_at_k,
)


class TestMetrics:
    def test_success_at_k(self):
        hits = [False, True, False]
        assert success_at_k(hits, 1) == 0.0
        assert success_at_k(hits, 2) == 1.0
        assert success_at_k([], 3) == 0.0

    def test_reciprocal_rank(self):
        assert reciprocal_rank([True]) == 1.0
        assert reciprocal_rank([False, True]) == 0.5
        assert reciprocal_rank([False, False]) == 0.0

    def test_precision_at_k(self):
        assert precision_at_k([True, False, True, False], 4) == 0.5
        assert precision_at_k([], 4) == 0.0
        assert precision_at_k([True], 0) == 0.0

    def test_ndcg(self):
        assert ndcg_at_k([True], 10) == 1.0
        assert 0.0 < ndcg_at_k([False, True], 10) < 1.0
        assert ndcg_at_k([False, False], 10) == 0.0

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_hit_list(self):
        gold = SelectQuery(
            tables=(TableRef.of("movie"),),
            predicates=(Predicate("movie", "title", Comparison.CONTAINS, "x"),),
        )
        other = SelectQuery(tables=(TableRef.of("movie"),))
        assert hit_list([other, gold], gold) == [False, True]


class TestHarness:
    def test_quest_engine_on_workload(self, imdb_db, imdb_workload):
        from repro.core import Quest
        from repro.eval import quest_engine
        from repro.wrapper import FullAccessWrapper

        from tests.conftest import backend_for

        engine = Quest(FullAccessWrapper(backend_for(imdb_db)))
        result = evaluate(
            quest_engine(engine), imdb_workload, k=10, engine_name="quest"
        )
        assert result.query_count == len(imdb_workload)
        assert result.success_at(10) >= 0.7
        assert 0.0 <= result.mrr <= 1.0
        summary = result.summary()
        assert set(summary) == {
            "queries",
            "success@1",
            "success@3",
            "success@10",
            "mrr",
            "ndcg@10",
            "mean_seconds",
        }

    def test_failing_engine_counts_as_misses(self, imdb_workload):
        def broken(text, k):
            raise RuntimeError("boom")

        result = evaluate(broken, imdb_workload, k=5)
        assert result.success_at(5) == 0.0
        assert result.query_count == len(imdb_workload)

    def test_evaluate_batch_ignores_batches_published_in_between(
        self, imdb_db, imdb_workload
    ):
        """Another batch on the same engine must not leak into the result.

        A one-query batch published right after the evaluated one
        overwrites the engine's shared ``batch_traces`` mirror; a harness
        zipping with that mirror keeps one outcome instead of four.
        """
        from repro.core import Quest
        from repro.eval import evaluate_batch, quest_engine
        from repro.wrapper import FullAccessWrapper

        from tests.conftest import backend_for

        engine = Quest(FullAccessWrapper(backend_for(imdb_db)))
        workload = imdb_workload.subset(4)
        run_batch = engine.search_many_contexts

        def interleaved(*args, **kwargs):
            contexts = run_batch(*args, **kwargs)
            run_batch([workload.queries[0].text])  # a concurrent caller
            return contexts

        engine.search_many_contexts = interleaved
        result = evaluate_batch(engine, workload, k=5)
        assert result.query_count == len(workload)
        reference = evaluate(quest_engine(engine), workload, k=5)
        assert [o.hits for o in result.outcomes] == [
            o.hits for o in reference.outcomes
        ]

    def test_outcome_rank(self, imdb_workload):
        def const(text, k):
            return []

        result = evaluate(const, imdb_workload)
        assert all(o.rank is None for o in result.outcomes)

    def test_module_ablation_engines_run(self, imdb_db, imdb_workload):
        from repro.core import Quest
        from repro.eval import backward_only_engine, forward_only_engine
        from repro.wrapper import FullAccessWrapper

        from tests.conftest import backend_for

        engine = Quest(FullAccessWrapper(backend_for(imdb_db)))
        for adapter in (
            forward_only_engine(engine, "apriori"),
            backward_only_engine(engine),
        ):
            result = evaluate(adapter, imdb_workload.subset(4), k=5)
            assert result.query_count == 4

    def test_forward_only_feedback_without_model(self, imdb_db, imdb_workload):
        from repro.core import Quest
        from repro.eval import forward_only_engine
        from repro.wrapper import FullAccessWrapper

        from tests.conftest import backend_for

        engine = Quest(FullAccessWrapper(backend_for(imdb_db)))
        adapter = forward_only_engine(engine, "feedback")
        result = evaluate(adapter, imdb_workload.subset(2), k=5)
        assert result.success_at(5) == 0.0


class TestReport:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 0.5], ["b", 1.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.500" in text and "1.000" in text

    def test_format_results(self):
        text = format_results(
            [{"mrr": 0.5}, {"mrr": 0.7}], ["quest", "discover"]
        )
        assert "quest" in text and "discover" in text

    def test_format_results_empty(self):
        assert format_results([], []) == ""
