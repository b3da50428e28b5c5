"""Tests for top-k Steiner tree enumeration."""

import pytest

from repro.db import Catalog, Column, ColumnRef, Schema, TableSchema
from repro.db.types import DataType
from repro.errors import SteinerError
from repro.steiner import (
    SchemaGraph,
    build_schema_graph,
    top_k_steiner_trees,
)
from repro.steiner.topk import _inert_nodes

from tests.oracle import exact_steiner_tree_reference


class TestBasics:
    def test_top1_matches_exact(self, mini_db):
        graph = build_schema_graph(
            mini_db.schema, Catalog.from_database(mini_db)
        )
        terminals = [ColumnRef("person", "name"), ColumnRef("genre", "label")]
        exact = exact_steiner_tree_reference(graph, terminals)
        topk = top_k_steiner_trees(graph, terminals, 3)
        assert topk[0].weight == pytest.approx(exact.weight)

    def test_results_sorted_and_distinct(self, mondial_db):
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("organization", "name"),
        ]
        trees = top_k_steiner_trees(graph, terminals, 5)
        weights = [t.weight for t in trees]
        assert weights == sorted(weights)
        signatures = [t.signature() for t in trees]
        assert len(set(signatures)) == len(signatures)

    def test_all_results_are_valid_trees(self, mondial_db):
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("city", "name"),
        ]
        for tree in top_k_steiner_trees(graph, terminals, 6):
            assert tree.is_valid_tree()
            assert set(terminals) <= set(tree.nodes)

    def test_single_terminal(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        trees = top_k_steiner_trees(graph, [ColumnRef("movie", "title")], 5)
        assert len(trees) == 1 and trees[0].weight == 0.0

    def test_invalid_k_rejected(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            top_k_steiner_trees(graph, [ColumnRef("movie", "title")], 0)

    def test_no_terminals_rejected(self, mini_schema):
        graph = build_schema_graph(mini_schema)
        with pytest.raises(SteinerError):
            top_k_steiner_trees(graph, [], 3)

    def test_disconnected_terminals_rejected(self, mini_schema):
        graph = SchemaGraph(mini_schema)  # no edges at all
        with pytest.raises(SteinerError):
            top_k_steiner_trees(
                graph,
                [ColumnRef("movie", "title"), ColumnRef("person", "name")],
                2,
            )


class TestDiversity:
    def test_multiple_paths_found_on_mondial(self, mondial_db):
        """country <-> organization: via member, or via city headquarters —
        the enumerator must surface structurally different paths."""
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("organization", "name"),
        ]
        trees = top_k_steiner_trees(graph, terminals, 6)
        assert len(trees) >= 2
        table_sets = {tuple(sorted(t.tables)) for t in trees}
        assert len(table_sets) >= 2

    def test_supertree_pruning_reduces_redundancy(self, mondial_db):
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("city", "name"),
        ]
        pruned = top_k_steiner_trees(
            graph, terminals, 8, prune_supertrees=True
        )
        raw = top_k_steiner_trees(
            graph, terminals, 8, prune_supertrees=False
        )
        # Pruned results never contain one another.
        for i, outer in enumerate(pruned):
            for j, inner in enumerate(pruned):
                if i != j:
                    assert not outer.contains_tree(inner)
        # Pruning can only remove or keep results, never invent them.
        assert {t.signature() for t in pruned} <= {
            t.signature() for t in raw
        } or len(raw) == 8

    def test_prefix_property(self, mondial_db):
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("river", "name"),
        ]
        small = top_k_steiner_trees(graph, terminals, 2)
        large = top_k_steiner_trees(graph, terminals, 5)
        assert [t.signature() for t in small] == [
            t.signature() for t in large[:2]
        ]


def _peeled(edges: list[str], terminals: str, isolated: str = "") -> str:
    """The nodes the pendant peel removes, for a graph on one-letter nodes.

    *edges* are two-letter strings ("ab" joins a and b); *terminals* and
    *isolated* list node letters.
    """
    letters = sorted(set("".join(edges)) | set(terminals) | set(isolated))
    schema = Schema(
        tables=[
            TableSchema(
                "t",
                tuple(Column(c, DataType.TEXT, nullable=False) for c in letters),
                (letters[0],),
            )
        ],
        name="peel",
    )
    graph = SchemaGraph(schema)
    for left, right in edges:
        graph.add_edge(ColumnRef("t", left), ColumnRef("t", right), 1.0, "intra")
    compact = graph.compact()
    terminal_mask = 0
    for letter in terminals:
        terminal_mask |= 1 << compact.index[ColumnRef("t", letter)]
    inert = _inert_nodes(compact.neighbors, terminal_mask)
    return "".join(
        node.column for i, node in enumerate(compact.nodes) if inert >> i & 1
    )


class TestPendantPeel:
    def test_star_keeps_the_hub_between_terminal_leaves(self):
        assert _peeled(["ha", "hb", "hc", "hd"], terminals="ab") == "cd"

    def test_star_with_one_terminal_leaf_keeps_only_it(self):
        # The hub falls to degree one once the free leaves go.
        assert _peeled(["ha", "hb", "hc"], terminals="a") == "bch"

    def test_chain_through_a_terminal_stops_at_it(self):
        # Triangle xyz; chain z-p-t-q-r with t a terminal: only the part
        # past the terminal is terminal-free.
        edges = ["xy", "yz", "zx", "zp", "pt", "tq", "qr"]
        assert _peeled(edges, terminals="tx") == "qr"

    def test_cycle_peels_nothing(self):
        assert _peeled(["ab", "bc", "cd", "da"], terminals="a") == ""

    def test_isolated_non_terminal_is_peeled(self):
        assert _peeled(["ab", "bc", "ca"], terminals="a", isolated="iz") == "iz"

    def test_isolated_terminal_is_kept(self):
        assert _peeled(["ab", "bc", "ca"], terminals="ai", isolated="i") == ""
