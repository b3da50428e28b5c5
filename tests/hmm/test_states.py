"""Tests for the HMM state space."""

import pytest

from repro.db import ColumnRef
from repro.hmm import State, StateKind, StateSpace
from repro.hmm.states import StatesKey


class TestState:
    def test_table_state_has_no_column(self):
        with pytest.raises(ValueError):
            State(StateKind.TABLE, "movie", "title")

    def test_non_table_states_need_column(self):
        with pytest.raises(ValueError):
            State(StateKind.DOMAIN, "movie")

    def test_column_ref(self):
        state = State(StateKind.ATTRIBUTE, "movie", "title")
        assert state.column_ref == ColumnRef("movie", "title")
        assert State(StateKind.TABLE, "movie").column_ref is None

    def test_str(self):
        assert str(State(StateKind.TABLE, "movie")) == "table:movie"
        assert (
            str(State(StateKind.DOMAIN, "movie", "title"))
            == "domain:movie.title"
        )

    def test_kind_is_schema_term(self):
        assert StateKind.TABLE.is_schema_term
        assert StateKind.ATTRIBUTE.is_schema_term
        assert not StateKind.DOMAIN.is_schema_term


class TestStateSpace:
    def test_size(self, mini_schema):
        space = StateSpace(mini_schema)
        expected = sum(1 + 2 * len(t.columns) for t in mini_schema.tables)
        assert len(space) == expected

    def test_index_roundtrip(self, mini_schema):
        space = StateSpace(mini_schema)
        for position, state in enumerate(space):
            assert space.index(state) == position
            assert space[position] == state

    def test_deterministic_order(self, mini_schema):
        left = StateSpace(mini_schema)
        right = StateSpace(mini_schema)
        assert left.states == right.states

    def test_lookup_helpers(self, mini_schema):
        space = StateSpace(mini_schema)
        assert space.table_state("movie").kind is StateKind.TABLE
        assert space.attribute_state("movie", "title").column == "title"
        assert space.domain_state("person", "name").kind is StateKind.DOMAIN

    def test_states_of_table(self, mini_schema):
        space = StateSpace(mini_schema)
        movie_states = space.states_of_table("movie")
        assert all(s.table == "movie" for s in movie_states)
        assert len(movie_states) == 1 + 2 * 5

    def test_domain_states(self, mini_schema):
        space = StateSpace(mini_schema)
        assert all(
            s.kind is StateKind.DOMAIN for s in space.domain_states()
        )

    def test_contains(self, mini_schema):
        space = StateSpace(mini_schema)
        assert State(StateKind.TABLE, "movie") in space
        assert State(StateKind.TABLE, "nope") not in space


class TestStatesKey:
    def test_equal_spaces_share_a_key(self, mini_schema):
        first, second = StateSpace(mini_schema), StateSpace(mini_schema)
        assert first.key == second.key
        assert hash(first.key) == hash(first.states)
        assert {first.key: 1}.get(second.key) == 1

    def test_order_is_part_of_the_key(self, mini_schema):
        states = StateSpace(mini_schema).states
        reordered = StatesKey(tuple(reversed(states)))
        assert len(reordered.states) == len(states)
        assert reordered != StatesKey(states)
        assert {StatesKey(states): 1}.get(reordered) is None

