"""Tests for top-k Steiner tree enumeration."""

import contextlib
import heapq
import random
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import iter_bits
from repro.db import Catalog, Column, ColumnRef, Schema, TableSchema
from repro.db.types import DataType
from repro.errors import SteinerError
from repro.steiner import (
    SchemaGraph,
    build_schema_graph,
    top_k_steiner_trees,
    top_k_steiner_trees_reference,
)
from repro.steiner import topk
from repro.steiner.topk import _count_trees, _inert_nodes

from tests.oracle import (
    exact_steiner_tree_reference,
    terminal_leaved_tree_count_reference,
    terminal_leaved_tree_union_reference,
)


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

    def test_supertree_filter_never_fires(self, mondial_db):
        """Emitted trees are terminal-leaved, so none contains another:
        the reference's explicit filter removes nothing."""
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("city", "name"),
        ]
        pruned = top_k_steiner_trees_reference(
            graph, terminals, 8, prune_supertrees=True
        )
        raw = top_k_steiner_trees_reference(
            graph, terminals, 8, prune_supertrees=False
        )
        assert [(t.signature(), t.weight) for t in pruned] == [
            (t.signature(), t.weight) for t in raw
        ]
        for i, outer in enumerate(raw):
            for j, inner in enumerate(raw):
                if i != j:
                    assert not outer.contains_tree(inner)

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


def _letter_graph(edges: list[str], letters: str) -> SchemaGraph:
    """A unit-weight graph on the one-letter nodes *letters*; each of
    *edges* is a two-letter string ("ab" joins a and b)."""
    columns = sorted(letters)
    schema = Schema(
        tables=[
            TableSchema(
                "t",
                tuple(Column(c, DataType.TEXT, nullable=False) for c in columns),
                (columns[0],),
            )
        ],
        name="letters",
    )
    graph = SchemaGraph(schema)
    for left, right in edges:
        graph.add_edge(ColumnRef("t", left), ColumnRef("t", right), 1.0, "intra")
    return graph


def _peeled(edges: list[str], terminals: str, isolated: str = "") -> str:
    """The nodes the pendant peel removes, for a graph on one-letter nodes.

    *edges* are two-letter strings ("ab" joins a and b); *terminals* and
    *isolated* list node letters.
    """
    letters = set("".join(edges)) | set(terminals) | set(isolated)
    compact = _letter_graph(edges, "".join(letters)).compact()
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


@contextlib.contextmanager
def recorded_pops() -> Iterator[list]:
    """Record every heap entry the top-k searches inside the block pop."""
    popped: list = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry)
        return entry

    with mock.patch.object(
        topk, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
    ):
        yield popped


class TestEarlyStop:
    def test_search_ends_on_the_pop_that_emits_its_last_tree(self, mondial_db):
        """country, river and city names at k=10 yield 4 trees: the
        search pops only states inside their nodes and stops on the pop
        that emits the 4th, with the trees and order of the reference,
        which runs until its heap is empty."""
        graph = build_schema_graph(
            mondial_db.schema, Catalog.from_database(mondial_db)
        )
        terminals = [
            ColumnRef("country", "name"),
            ColumnRef("river", "name"),
            ColumnRef("city", "name"),
        ]
        with recorded_pops() as popped:
            trees = top_k_steiner_trees(graph, terminals, 10)
        graph.steiner_cache.clear()
        # An unknown count gives no early stop.
        with recorded_pops() as unstopped_pops, mock.patch.object(
            topk, "COUNT_BUDGET", 0
        ):
            unstopped = top_k_steiner_trees(graph, terminals, 10)

        assert len(trees) == 4
        cost, _tie, _root, mask, edges, _nodes = popped[-1]
        compact = graph.compact()
        edge_list = compact.edge_list
        assert mask == 0b111
        assert frozenset(edge_list[i] for i in iter_bits(edges)) == trees[-1].edges
        assert cost == trees[-1].weight
        assert len(unstopped_pops) > len(popped)
        # Fewer than k trees: the search never leaves their nodes.
        tree_nodes = 0
        for tree in trees:
            for edge in tree.edges:
                tree_nodes |= 1 << compact.index[edge.left]
                tree_nodes |= 1 << compact.index[edge.right]
        assert all(nodes & ~tree_nodes == 0 for *_entry, nodes in popped)

        graph.steiner_cache.clear()
        reference = top_k_steiner_trees_reference(graph, terminals, 10)
        for found in (trees, unstopped):
            assert [(t.signature(), t.weight) for t in found] == [
                (t.signature(), t.weight) for t in reference
            ]


def _small_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """At most 10 nodes and 12 edges: a random recursive tree (whose
    branches make pendant subtrees) plus up to 3 chords (cycles), and 2-4
    terminals anywhere in it."""
    rng = random.Random(seed)
    letters = "abcdefghij"[: rng.randint(3, 10)]
    edges = [letters[rng.randrange(i)] + letters[i] for i in range(1, len(letters))]
    for _ in range(rng.randint(0, min(3, 13 - len(letters)))):
        pair = "".join(rng.sample(letters, 2))
        if pair not in edges and pair[::-1] not in edges:
            edges.append(pair)
    terminals = rng.sample(letters, rng.randint(2, min(4, len(letters))))
    return _letter_graph(edges, letters), [ColumnRef("t", c) for c in terminals]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_tree_count_matches_brute_force(seed: int):
    """``_count_trees`` counts the terminal-leaved trees exactly, with or
    without the peel and in any terminal order; a cap caps it, and a
    budget overrun answers "unknown", never a partial count. Under the
    cap, the union it returns holds exactly the nodes of those trees."""
    graph, terminals = _small_graph(seed)
    expected = terminal_leaved_tree_count_reference(graph, terminals)
    assert expected >= 1  # the terminals are connected
    compact = graph.compact()
    expected_union = sum(
        1 << compact.index[node]
        for node in terminal_leaved_tree_union_reference(graph, terminals)
    )
    nodes = [compact.index[t] for t in terminals]
    inert = _inert_nodes(compact.neighbors, sum(1 << node for node in nodes))
    rng = random.Random(seed + 1)
    unlimited = 10**9

    assert _count_trees(compact.neighbors, nodes, inert, unlimited, unlimited) == (
        expected,
        expected_union,
    )
    rng.shuffle(nodes)
    assert _count_trees(compact.neighbors, nodes, 0, unlimited, unlimited) == (
        expected,
        expected_union,
    )
    cap = rng.randint(1, 12)
    count, union = _count_trees(compact.neighbors, nodes, inert, cap, unlimited)
    assert count == min(expected, cap)
    if count < cap:
        assert union == expected_union
    else:
        assert union & ~expected_union == 0
    assert _count_trees(compact.neighbors, nodes, inert, cap, 0)[0] is None
    budget = rng.randint(1, 80)
    assert _count_trees(compact.neighbors, nodes, inert, cap, budget)[0] in (
        None,
        min(expected, cap),
    )


def test_states_through_nodes_outside_every_tree_are_rooted_outside():
    """The lemma behind searching only the union of the terminal-leaved
    trees: every popped state of the reference search (so every accepted
    one) that holds a node outside that union is rooted outside it, and
    no emitted tree holds such a node. Such states must occur."""
    outside_states: list[int] = []

    def nodes_of(root, edges) -> set:
        return {root} | {node for edge in edges for node in (edge.left, edge.right)}

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def check(seed: int) -> None:
        graph, terminals = _small_graph(seed)
        k = random.Random(seed + 1).randint(1, 12)
        union = terminal_leaved_tree_union_reference(graph, terminals)
        with recorded_pops() as popped:
            trees = top_k_steiner_trees_reference(graph, terminals, k)
        outside = 0
        for _cost, _tie, root, _mask, edges in popped:
            if not nodes_of(root, edges) <= union:
                assert root not in union
                outside += 1
        for tree in trees:
            assert nodes_of(terminals[0], tree.edges) <= union
        outside_states.append(outside)

    check()
    assert sum(outside > 0 for outside in outside_states) >= 10
