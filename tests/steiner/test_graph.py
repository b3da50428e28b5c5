"""Tests for the schema graph."""

import pytest

from repro.db import Catalog, ColumnRef
from repro.errors import SteinerError
from repro.steiner import (
    EdgeKind,
    INTRA_TABLE_WEIGHT,
    SchemaGraph,
    build_schema_graph,
)


class TestConstruction:
    def test_node_per_attribute(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        assert len(graph) == sum(len(t.columns) for t in mini_schema.tables)

    def test_paper_edge_structure(self, mini_schema):
        """(i) pk-to-attribute edges, (ii) pk-fk edges."""
        graph = build_schema_graph(mini_schema)
        pk = ColumnRef("movie", "id")
        for column in ("title", "year", "director_id", "genre_id"):
            edge = graph.edge_between(pk, ColumnRef("movie", column))
            assert edge is not None and edge.kind == EdgeKind.INTRA
        join = graph.edge_between(
            ColumnRef("movie", "director_id"), ColumnRef("person", "id")
        )
        assert join is not None and join.kind == EdgeKind.JOIN
        assert join.foreign_key is not None

    def test_no_edges_between_non_key_attributes(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        assert (
            graph.edge_between(
                ColumnRef("movie", "title"), ColumnRef("movie", "year")
            )
            is None
        )

    def test_edge_count(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        intra = sum(
            len(t.primary_key) * (len(t.columns) - 1)
            for t in mini_schema.tables
        )
        joins = len(mini_schema.foreign_keys)
        assert graph.edge_count == intra + joins


class TestWeights:
    def test_uniform_weights_without_catalog(self, mini_schema):
        graph = build_schema_graph(mini_schema, catalog=None)
        join_edges = [e for e in graph.edges if e.kind == EdgeKind.JOIN]
        assert all(e.weight == 1.0 for e in join_edges)

    def test_mi_weights_with_catalog(self, mini_db):
        catalog = Catalog.from_database(mini_db)
        graph = build_schema_graph(mini_db.schema, catalog)
        join_edges = [e for e in graph.edges if e.kind == EdgeKind.JOIN]
        # MI distances land in (MIN, 1 + MIN]; none should be exactly the
        # uniform default on this skewed instance.
        assert all(0.0 < e.weight <= 1.01 + 1e-9 for e in join_edges)

    def test_mi_disabled_falls_back_to_uniform(self, mini_db):
        catalog = Catalog.from_database(mini_db)
        graph = build_schema_graph(
            mini_db.schema, catalog, mutual_information=False
        )
        join_edges = [e for e in graph.edges if e.kind == EdgeKind.JOIN]
        assert all(e.weight == 1.0 for e in join_edges)

    def test_intra_edges_are_cheap(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        intra_edges = [e for e in graph.edges if e.kind == EdgeKind.INTRA]
        assert all(e.weight == INTRA_TABLE_WEIGHT for e in intra_edges)


class TestGraphOperations:
    def test_add_edge_validates(self, mini_schema):
        graph = SchemaGraph(mini_schema)
        node = ColumnRef("movie", "id")
        with pytest.raises(SteinerError):
            graph.add_edge(node, node, 1.0, EdgeKind.INTRA)
        with pytest.raises(SteinerError):
            graph.add_edge(node, ColumnRef("zzz", "id"), 1.0, EdgeKind.INTRA)
        with pytest.raises(SteinerError):
            graph.add_edge(
                node, ColumnRef("movie", "title"), 0.0, EdgeKind.INTRA
            )

    def test_readding_keeps_lighter_edge(self, mini_schema):
        graph = SchemaGraph(mini_schema)
        left, right = ColumnRef("movie", "id"), ColumnRef("movie", "title")
        graph.add_edge(left, right, 2.0, EdgeKind.INTRA)
        graph.add_edge(left, right, 1.0, EdgeKind.INTRA)
        graph.add_edge(left, right, 3.0, EdgeKind.INTRA)
        assert graph.edge_between(left, right).weight == 1.0
        assert graph.edge_count == 1

    def test_neighbors(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        neighbours = dict(graph.neighbors(ColumnRef("movie", "id")))
        assert ColumnRef("movie", "title") in neighbours

    def test_neighbors_of_unknown_node(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            list(graph.neighbors(ColumnRef("zzz", "id")))

    def test_connected(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        assert graph.connected(
            {ColumnRef("person", "name"), ColumnRef("genre", "label")}
        )
        assert graph.connected(set())

    def test_connected_rejects_unknown_node(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            graph.connected({ColumnRef("movie", "id"), ColumnRef("zzz", "id")})

    def test_component_labels_split_at_missing_edges(self, mini_schema):
        graph = SchemaGraph(mini_schema)  # no edges: one component per node
        compact = graph.compact()
        assert compact.component == list(range(len(compact)))
        left, right = ColumnRef("movie", "id"), ColumnRef("movie", "title")
        graph.add_edge(left, right, 1.0, EdgeKind.INTRA)
        labels = graph.compact().component
        index = graph.compact().index
        assert labels[index[left]] == labels[index[right]]
        assert not compact.connected({left, right})  # the retained snapshot

    def test_degree(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        # movie.id connects to 4 own attributes; fk targets hang off the
        # fk columns, not the pk, so degree is exactly 4.
        assert graph.degree(ColumnRef("movie", "id")) == 4

    def test_edge_other(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        edge = graph.edge_between(
            ColumnRef("movie", "id"), ColumnRef("movie", "title")
        )
        assert edge.other(edge.left) == edge.right
        assert edge.other(edge.right) == edge.left
        with pytest.raises(SteinerError):
            edge.other(ColumnRef("genre", "id"))
