"""Tests for the Dreyfus-Wagner optimality oracle, checked against networkx."""

import networkx as nx
import pytest

from repro.db import Catalog, ColumnRef
from repro.errors import SteinerError
from repro.steiner import build_schema_graph, top_k_steiner_trees

from tests.oracle import exact_steiner_tree_reference, shortest_paths


def to_networkx(graph):
    g = nx.Graph()
    for edge in graph.edges:
        g.add_edge(edge.left, edge.right, weight=edge.weight)
    return g


class TestShortestPaths:
    def test_matches_networkx(self, mondial_db):
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        nxg = to_networkx(graph)
        source = ColumnRef("country", "code")
        distances, _pred = shortest_paths(graph, source)
        expected = nx.single_source_dijkstra_path_length(nxg, source)
        assert set(distances) == set(expected)
        for node, distance in expected.items():
            assert distances[node] == pytest.approx(distance)


class TestExact:
    def test_single_terminal(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        tree = exact_steiner_tree_reference(graph, [ColumnRef("movie", "title")])
        assert tree.weight == 0.0
        assert tree.edges == frozenset()

    def test_two_terminals_is_shortest_path(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        source = ColumnRef("person", "name")
        target = ColumnRef("genre", "label")
        tree = exact_steiner_tree_reference(graph, [source, target])
        distances, _ = shortest_paths(graph, source)
        assert tree.weight == pytest.approx(distances[target])
        assert tree.is_valid_tree()

    def test_terminals_in_same_table(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        tree = exact_steiner_tree_reference(
            graph,
            [ColumnRef("movie", "title"), ColumnRef("movie", "year")],
        )
        # title - id - year through the pk hub: 2 intra edges.
        assert tree.weight == pytest.approx(0.2)
        assert tree.tables == frozenset({"movie"})

    def test_duplicate_terminals_collapse(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        ref = ColumnRef("movie", "title")
        tree = exact_steiner_tree_reference(graph, [ref, ref])
        assert tree.weight == 0.0

    def test_empty_terminals_rejected(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            exact_steiner_tree_reference(graph, [])

    def test_unknown_terminal_rejected(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            exact_steiner_tree_reference(graph, [ColumnRef("zzz", "id")])

    @pytest.mark.parametrize(
        "terminal_refs",
        [
            [("person", "name"), ("genre", "label")],
            [("person", "name"), ("movie", "title"), ("genre", "label")],
            [("movie", "year"), ("person", "id")],
        ],
    )
    def test_matches_networkx_steiner_lower_bound(
        self, mini_db, terminal_refs
    ):
        """Our exact tree must never be heavier than the networkx
        approximation, and must be a valid tree spanning the terminals."""
        graph = build_schema_graph(
            mini_db.schema, Catalog.from_database(mini_db)
        )
        terminals = [ColumnRef(t, c) for t, c in terminal_refs]
        tree = exact_steiner_tree_reference(graph, terminals)
        assert tree.is_valid_tree()
        assert set(terminals) <= set(tree.nodes)

        nxg = to_networkx(graph)
        approx = nx.algorithms.approximation.steiner_tree(
            nxg, terminals, weight="weight"
        )
        approx_weight = sum(
            d["weight"] for _u, _v, d in approx.edges(data=True)
        )
        assert tree.weight <= approx_weight + 1e-9

    def test_exhaustive_on_mondial(self, mondial_db):
        """On the complex schema: the top-k search's first tree weighs
        exactly what the Dreyfus-Wagner optimum does."""
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        cases = [
            [ColumnRef("country", "name"), ColumnRef("river", "name")],
            [
                ColumnRef("country", "name"),
                ColumnRef("continent", "name"),
                ColumnRef("city", "name"),
            ],
            [
                ColumnRef("organization", "name"),
                ColumnRef("country", "name"),
            ],
        ]
        for terminals in cases:
            exact = exact_steiner_tree_reference(graph, terminals)
            (first,) = top_k_steiner_trees(graph, terminals, 1)
            assert exact.is_valid_tree()
            assert first.weight == pytest.approx(exact.weight)
