"""Tests for the SteinerTree value object."""

import pytest

from repro.db import Catalog, ColumnRef
from repro.errors import SteinerError
from repro.steiner import (
    EdgeKind,
    SchemaEdge,
    SteinerTree,
    build_schema_graph,
)

from tests.oracle import exact_steiner_tree_reference


def tree_for(db, terminals):
    graph = build_schema_graph(db.schema, Catalog.from_database(db))
    return exact_steiner_tree_reference(graph, terminals)


class TestStructure:
    def test_nodes_and_steiner_points(self, mini_db):
        tree = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        assert ColumnRef("movie", "director_id") in tree.steiner_points
        assert ColumnRef("person", "name") in tree.nodes
        assert ColumnRef("person", "name") not in tree.steiner_points

    def test_tables(self, mini_db):
        tree = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        assert tree.tables == frozenset({"person", "movie", "genre"})

    def test_join_edges_and_foreign_keys(self, mini_db):
        tree = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        joins = tree.join_edges()
        assert len(joins) == 2
        fks = tree.foreign_keys()
        assert {(fk.table, fk.column) for fk in fks} == {
            ("movie", "director_id"),
            ("movie", "genre_id"),
        }

    def test_join_edge_without_fk_raises(self):
        bad_edge = SchemaEdge(
            ColumnRef("a", "x"), ColumnRef("b", "y"), 1.0, EdgeKind.JOIN, None
        )
        tree = SteinerTree(
            frozenset({ColumnRef("a", "x")}), frozenset({bad_edge}), 1.0
        )
        with pytest.raises(SteinerError):
            tree.foreign_keys()

    def test_signature_is_edge_based(self, mini_db):
        left = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        right = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        assert left.signature() == right.signature()


class TestValidity:
    def test_empty_tree_single_table_is_valid(self):
        tree = SteinerTree(
            frozenset({ColumnRef("movie", "title"), ColumnRef("movie", "year")}),
            frozenset(),
            0.0,
        )
        assert tree.is_valid_tree()

    def test_empty_tree_multi_table_is_invalid(self):
        tree = SteinerTree(
            frozenset({ColumnRef("movie", "title"), ColumnRef("person", "name")}),
            frozenset(),
            0.0,
        )
        assert not tree.is_valid_tree()

    def test_cycle_is_invalid(self):
        a, b, c = (
            ColumnRef("t", "a"),
            ColumnRef("t", "b"),
            ColumnRef("t", "c"),
        )
        edges = frozenset(
            {
                SchemaEdge(a, b, 1.0, EdgeKind.INTRA),
                SchemaEdge(b, c, 1.0, EdgeKind.INTRA),
                SchemaEdge(c, a, 1.0, EdgeKind.INTRA),
            }
        )
        tree = SteinerTree(frozenset({a}), edges, 3.0)
        assert not tree.is_valid_tree()

    def test_disconnected_forest_is_invalid(self):
        a, b, c, d = (ColumnRef("t", x) for x in "abcd")
        edges = frozenset(
            {
                SchemaEdge(a, b, 1.0, EdgeKind.INTRA),
                SchemaEdge(c, d, 1.0, EdgeKind.INTRA),
            }
        )
        tree = SteinerTree(frozenset({a, c}), edges, 2.0)
        assert not tree.is_valid_tree()

    def test_contains_tree(self, mini_db):
        big = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        )
        small = tree_for(
            mini_db, [ColumnRef("person", "name"), ColumnRef("movie", "id")]
        )
        assert big.contains_tree(big)
        # The person-movie path is a sub-path of the person-movie-genre path.
        assert big.contains_tree(small)
        assert not small.contains_tree(big)

    def test_ordering_by_weight(self):
        light = SteinerTree(frozenset({ColumnRef("t", "a")}), frozenset(), 0.0)
        heavy = SteinerTree(frozenset({ColumnRef("t", "b")}), frozenset(), 0.0)
        # Same weight: falls back to node names for determinism.
        assert light < heavy
