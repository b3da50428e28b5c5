"""Parity: the bitmask top-k Steiner search against its reference.

Random weighted graphs (including tie-heavy weight pools) must yield
identical results from the bitmask top-k enumeration and the frozenset
reference search — tree for tree, float for float.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Schema, TableSchema
from repro.db.schema import ColumnRef
from repro.db.types import DataType
from repro.errors import SteinerError
from repro.steiner import (
    SchemaGraph,
    top_k_steiner_trees,
    top_k_steiner_trees_reference,
)

from tests.oracle import shortest_paths


def _random_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """A random connected-ish weighted graph plus a random terminal set."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    schema = Schema(
        tables=[
            TableSchema(
                "t",
                tuple(
                    Column(f"c{i}", DataType.TEXT, nullable=False) for i in range(n)
                ),
                ("c0",),
            )
        ],
        name="random",
    )
    graph = SchemaGraph(schema)
    nodes = list(graph.nodes)
    # Random spanning chain first (so most terminal sets connect), then
    # extra random edges; tie-heavy weights exercise the determinism rule.
    weight_pool = [0.5, 1.0, 1.5] if seed % 2 else None
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, len(order)):
        weight = rng.choice(weight_pool) if weight_pool else rng.uniform(0.1, 2.0)
        graph.add_edge(order[i - 1], order[i], weight, "intra")
    for _ in range(rng.randint(0, 2 * n)):
        left, right = rng.sample(nodes, 2)
        weight = rng.choice(weight_pool) if weight_pool else rng.uniform(0.1, 2.0)
        if graph.edge_between(left, right) is None:
            graph.add_edge(left, right, weight, "intra")
    terminals = rng.sample(nodes, rng.randint(1, min(5, n)))
    return graph, terminals


def _assert_topk_parity(graph, terminals, k: int, prune: bool) -> None:
    try:
        fast = top_k_steiner_trees(graph, terminals, k, prune_supertrees=prune)
    except SteinerError:
        graph.steiner_cache.clear()
        with pytest.raises(SteinerError):
            top_k_steiner_trees_reference(graph, terminals, k, prune_supertrees=prune)
        return
    graph.steiner_cache.clear()
    slow = top_k_steiner_trees_reference(graph, terminals, k, prune_supertrees=prune)
    assert len(fast) == len(slow)
    for fast_tree, slow_tree in zip(fast, slow):
        assert fast_tree.signature() == slow_tree.signature()
        assert fast_tree.weight == slow_tree.weight  # bit identity
        assert fast_tree.terminals == slow_tree.terminals


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_topk_bitmask_matches_reference(seed: int):
    graph, terminals = _random_graph(seed)
    rng = random.Random(seed + 1)
    _assert_topk_parity(graph, terminals, rng.randint(1, 8), bool(seed % 2))


def _pendant_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """A random core with grafted pendant structure plus a terminal set.

    Around a connected core (a shuffled chain plus chords) it grafts
    terminal-free pendant trees, pendant chains that pass through a
    terminal and run on past it, isolated nodes and a second component:
    every shape the search's pendant peel removes or must keep.
    """
    rng = random.Random(seed)
    weight_pool = [0.5, 1.0, 1.5] if seed % 2 else None

    def weight() -> float:
        return rng.choice(weight_pool) if weight_pool else rng.uniform(0.1, 2.0)

    n_core = rng.randint(3, 7)
    tree_sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
    chain_sizes = [rng.randint(2, 4) for _ in range(rng.randint(0, 2))]
    n_isolated = rng.randint(0, 2)
    n_second = rng.choice([0, 2, 3])
    n = n_core + sum(tree_sizes) + sum(chain_sizes) + n_isolated + n_second
    schema = Schema(
        tables=[
            TableSchema(
                "t",
                tuple(
                    Column(f"c{i}", DataType.TEXT, nullable=False) for i in range(n)
                ),
                ("c0",),
            )
        ],
        name="pendant",
    )
    graph = SchemaGraph(schema)
    fresh = iter(list(graph.nodes))
    core = [next(fresh) for _ in range(n_core)]
    rng.shuffle(core)
    for left, right in zip(core, core[1:]):
        graph.add_edge(left, right, weight(), "intra")
    for _ in range(rng.randint(0, n_core)):
        left, right = rng.sample(core, 2)
        if graph.edge_between(left, right) is None:
            graph.add_edge(left, right, weight(), "intra")
    terminals = rng.sample(core, rng.randint(1, min(3, n_core)))
    for size in tree_sizes:  # terminal-free pendant trees
        grown = [rng.choice(core)]
        for _ in range(size):
            node = next(fresh)
            graph.add_edge(rng.choice(grown), node, weight(), "intra")
            grown.append(node)
    for size in chain_sizes:  # pendant chains through a terminal
        chain = [rng.choice(core)] + [next(fresh) for _ in range(size)]
        for left, right in zip(chain, chain[1:]):
            graph.add_edge(left, right, weight(), "intra")
        terminals.append(chain[rng.randint(1, size - 1)])
    isolated = [next(fresh) for _ in range(n_isolated)]
    second = [next(fresh) for _ in range(n_second)]
    # Two nodes make a terminal-free edge (peeled whole), three a
    # terminal-free triangle (a cycle, never peeled).
    for left, right in itertools.combinations(second, 2):
        graph.add_edge(left, right, weight(), "intra")
    # Rarely a terminal lands off the core's component: both searches
    # must then refuse the set alike.
    if (isolated or second) and rng.random() < 0.1:
        terminals.append(rng.choice(isolated + second))
    return graph, terminals


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_topk_matches_reference_on_pendant_graphs(seed: int):
    graph, terminals = _pendant_graph(seed)
    rng = random.Random(seed + 1)
    _assert_topk_parity(
        graph, terminals, rng.choice([1, 3, rng.randint(1, 10), 10]), bool(seed % 3)
    )


def _two_path_graph(order: str) -> SchemaGraph:
    """s->target via two equal-weight intermediate hops, a or b."""
    schema = Schema(
        tables=[
            TableSchema(
                "t",
                (
                    Column("s", DataType.TEXT, nullable=False),
                    Column("a", DataType.TEXT, nullable=False),
                    Column("b", DataType.TEXT, nullable=False),
                    Column("z", DataType.TEXT, nullable=False),
                ),
                ("s",),
            )
        ],
        name="ties",
    )
    graph = SchemaGraph(schema)
    s, a, b, z = (ColumnRef("t", c) for c in "sabz")
    hops = [(s, a), (s, b), (a, z), (b, z)]
    if order == "reversed":
        hops = hops[::-1]
    for left, right in hops:
        graph.add_edge(left, right, 1.0, "intra")
    return graph


def test_shortest_path_ties_break_by_node_name():
    """Equal-weight paths: predecessor = lexicographically-first node,
    independent of edge insertion order (the determinism fix)."""
    source = ColumnRef("t", "s")
    target = ColumnRef("t", "z")
    maps = []
    for order in ("forward", "reversed"):
        graph = _two_path_graph(order)
        distances, predecessors = shortest_paths(graph, source)
        assert distances[target] == 2.0
        # t.a < t.b, so the tie must resolve through a.
        assert predecessors[target] == ColumnRef("t", "a")
        maps.append((distances, predecessors))
    assert maps[0] == maps[1]


def test_add_edge_invalidates_derived_caches():
    graph = _two_path_graph("forward")
    source = ColumnRef("t", "s")
    target = ColumnRef("t", "z")
    compact_before = graph.compact()
    trees = top_k_steiner_trees(graph, [source, target], 2)
    assert trees[0].weight == 2.0
    # A direct cheaper edge must flow through every cached structure.
    graph.add_edge(source, target, 0.5, "intra")
    assert graph.compact() is not compact_before
    assert len(graph.steiner_cache) == 0
    trees = top_k_steiner_trees(graph, [source, target], 2)
    assert trees[0].weight == 0.5
