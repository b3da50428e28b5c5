"""Tests for the full-access wrapper."""

import numpy as np
import pytest

from repro.db import SelectQuery, TableRef
from repro.hmm import StateSpace
from repro.wrapper import FullAccessWrapper


@pytest.fixture()
def space(mini_schema) -> StateSpace:
    return StateSpace(mini_schema)


class TestCapabilities:
    def test_has_instance_access(self, mini_wrapper):
        assert mini_wrapper.has_instance_access
        assert mini_wrapper.catalog.has_instance

    def test_execute(self, mini_wrapper):
        result = mini_wrapper.execute(
            SelectQuery(tables=(TableRef.of("movie"),))
        )
        assert len(result) == 5

    def test_result_count(self, mini_wrapper):
        assert mini_wrapper.result_count(
            SelectQuery(tables=(TableRef.of("genre"),))
        ) == 3


class TestEmissions:
    def test_value_keyword_hits_domain_state(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("kubrick", space)
        domain = space.index(space.domain_state("person", "name"))
        assert scores[domain] > 0
        assert scores[domain] == max(scores)

    def test_schema_keyword_hits_table_state(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("movies", space)
        table = space.index(space.table_state("movie"))
        assert scores[table] > 0

    def test_synonym_hits_table_state(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("film", space)
        table = space.index(space.table_state("movie"))
        assert scores[table] > 0

    def test_attribute_keyword_hits_attribute_state(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("title", space)
        attribute = space.index(space.attribute_state("movie", "title"))
        assert scores[attribute] > 0

    def test_instance_evidence_beats_name_noise(self, mini_wrapper, space):
        """A keyword present in the data must not leak onto unrelated
        schema-term states."""
        scores = mini_wrapper.emission_scores("kubrick", space)
        genre_table = space.index(space.table_state("genre"))
        assert scores[genre_table] == 0.0

    def test_unknown_keyword_scores_zero_everywhere(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("xyzzy", space)
        assert np.all(scores == 0)

    def test_year_keyword_hits_year_domain(self, mini_wrapper, space):
        scores = mini_wrapper.emission_scores("1968", space)
        domain = space.index(space.domain_state("movie", "year"))
        assert scores[domain] > 0


class TestLexiconMutation:
    """A lexicon mutation reaches cached emissions and the engine version."""

    def test_synonym_ring_refreshes_emissions_and_version(self):
        from repro import Quest
        from repro.datasets import mondial
        from repro.hmm.states import StateKind

        wrapper = FullAccessWrapper(mondial.generate(countries=10))
        engine = Quest(wrapper)
        states = engine.apriori_model.states
        column = next(
            i
            for i, state in enumerate(states.states)
            if state.kind is StateKind.TABLE and state.table == "country"
        )
        stale = wrapper.emission_matrix(["kingdom"], states)[0, column]
        before = engine.version

        wrapper._ontology.lexicon.add_synonym_ring("kingdom", "country")

        direct = wrapper.compute_emission_matrix(["kingdom"], states)[0, column]
        assert direct == pytest.approx(0.72) and stale < 0.01
        assert wrapper.emission_matrix(["kingdom"], states)[0, column] == direct
        assert wrapper.emission_scores("kingdom", states)[column] == direct
        assert engine.version != before
