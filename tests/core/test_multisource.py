"""Tests for multi-source search (Algorithm 2 of the paper)."""

import pytest

from repro.core import MultiSourceQuest, Quest
from repro.errors import ExecutionError, QuestError
from repro.wrapper import FullAccessWrapper

from tests.conftest import backend_for, build_mini_db


@pytest.fixture()
def two_sources(mini_db):
    """Two movie databases with overlapping but distinct content."""
    other = build_mini_db()
    other.insert("person", {"id": 4, "name": "Hayao Miyazaki"})
    other.insert(
        "movie",
        {"id": 6, "title": "The Wind Rises", "year": 2013,
         "director_id": 4, "genre_id": 3},
    )
    return {
        "alpha": Quest(FullAccessWrapper(backend_for(mini_db))),
        "beta": Quest(FullAccessWrapper(backend_for(other))),
    }


class TestMultiSource:
    def test_needs_at_least_one_source(self):
        with pytest.raises(QuestError):
            MultiSourceQuest({})

    def test_ignorance_validated(self, two_sources):
        with pytest.raises(QuestError):
            MultiSourceQuest(two_sources, {"alpha": 1.5})

    def test_answers_come_from_both_sources(self, two_sources):
        multi = MultiSourceQuest(two_sources)
        ranked = multi.search("kubrick movies", k=10)
        assert ranked
        sources = {name for name, _e in ranked}
        assert sources == {"alpha", "beta"}

    def test_source_exclusive_answers_dominate(self, two_sources):
        # Miyazaki exists only in source beta: alpha can still speculate
        # (schema-level mappings), but beta's grounded answer must rank
        # first and carry far more belief — evidence coverage makes the
        # uncomprehending source near-ignorant.
        multi = MultiSourceQuest(two_sources)
        ranked = multi.search("miyazaki movies", k=10)
        assert ranked
        top_name, top_explanation = ranked[0]
        assert top_name == "beta"
        best_alpha = max(
            (e.probability for n, e in ranked if n == "alpha"),
            default=0.0,
        )
        assert top_explanation.probability >= 3 * best_alpha

    def test_probabilities_form_subdistribution(self, two_sources):
        multi = MultiSourceQuest(two_sources)
        ranked = multi.search("kubrick movies", k=10)
        total = sum(e.probability for _n, e in ranked)
        assert 0.0 < total <= 1.0 + 1e-9
        probabilities = [e.probability for _n, e in ranked]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_ignorance_downweights_a_source(self, two_sources):
        trusted_alpha = MultiSourceQuest(
            two_sources, {"alpha": 0.05, "beta": 0.9}
        )
        trusted_beta = MultiSourceQuest(
            two_sources, {"alpha": 0.9, "beta": 0.05}
        )
        top_alpha = trusted_alpha.search("kubrick movies", k=5)[0][0]
        top_beta = trusted_beta.search("kubrick movies", k=5)[0][0]
        assert top_alpha == "alpha"
        assert top_beta == "beta"

    def test_unanswerable_query_gives_empty(self, two_sources):
        multi = MultiSourceQuest(two_sources)
        assert multi.search("zzzz qqqq", k=5) == []

    def test_k_bounds_results(self, two_sources):
        multi = MultiSourceQuest(two_sources)
        assert len(multi.search("kubrick movies", k=3)) <= 3

    def test_single_source_degenerates_gracefully(self, mini_db):
        multi = MultiSourceQuest(
            {"only": Quest(FullAccessWrapper(backend_for(mini_db)))}
        )
        ranked = multi.search("kubrick movies", k=5)
        assert ranked
        assert all(name == "only" for name, _e in ranked)


class TestSourceFailures:
    def test_unprocessable_source_is_dropped(self, two_sources, monkeypatch):
        # A source that cannot process the query contributes nothing;
        # the other source still answers.
        def unprocessable(keywords, k):
            raise QuestError("no configurations for this query")

        monkeypatch.setattr(two_sources["beta"], "search_keywords", unprocessable)
        ranked = MultiSourceQuest(two_sources).search("kubrick movies", k=10)
        assert ranked
        assert {name for name, _e in ranked} == {"alpha"}

    def test_storage_failure_propagates(self, two_sources, monkeypatch):
        # A source whose storage fails is not dropped: a ranking without
        # it would pass for a complete answer.
        def failing(keywords, k):
            raise ExecutionError("sqlite error: disk I/O error")

        monkeypatch.setattr(two_sources["beta"], "search_keywords", failing)
        with pytest.raises(ExecutionError, match="disk I/O error"):
            MultiSourceQuest(two_sources).search("kubrick movies", k=10)
