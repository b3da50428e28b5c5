"""Parity: the bitmask top-k Steiner search against its reference.

Random weighted graphs (including tie-heavy weight pools) must yield
identical results from the bitmask top-k enumeration and the frozenset
reference search — tree for tree, float for float — also on sparse graphs
where the bitmask search stops early, on its last possible emission, and
on graphs with terminal-free cycles hung off the core, where it searches
only the nodes of the trees it can yield.
"""

from __future__ import annotations

import itertools
import random
from unittest import mock

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
from repro.steiner import topk

from tests.oracle import shortest_paths
from tests.steiner.test_topk import recorded_pops


def _edgeless_graph(n: int, name: str) -> SchemaGraph:
    """A schema graph on the *n* columns ``t.c0`` .. ``t.c{n-1}``, no edges."""
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
        name=name,
    )
    return SchemaGraph(schema)


def _random_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """A random connected-ish weighted graph plus a random terminal set."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    graph = _edgeless_graph(n, "random")
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


def _assert_same_trees(fast, slow) -> None:
    assert len(fast) == len(slow)
    for fast_tree, slow_tree in zip(fast, slow):
        assert fast_tree.signature() == slow_tree.signature()
        assert fast_tree.weight == slow_tree.weight  # bit identity
        assert fast_tree.terminals == slow_tree.terminals


def _assert_topk_parity(graph, terminals, k: int, prune: bool) -> None:
    """The bitmask search against the reference, whose supertree filter
    is on or off by *prune* (it never fires, so both must agree)."""
    try:
        fast = top_k_steiner_trees(graph, terminals, k)
    except SteinerError:
        graph.steiner_cache.clear()
        with pytest.raises(SteinerError):
            top_k_steiner_trees_reference(graph, terminals, k, prune_supertrees=prune)
        return
    graph.steiner_cache.clear()
    slow = top_k_steiner_trees_reference(graph, terminals, k, prune_supertrees=prune)
    _assert_same_trees(fast, slow)


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
    graph = _edgeless_graph(n, "pendant")
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


def _sparse_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """A random recursive tree on 4-12 nodes plus at most two chords, and
    2-4 terminals: few trees span the terminals, so at k up to 12 most
    searches yield fewer than k and the early stop has work to cut."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    graph = _edgeless_graph(n, "sparse")
    nodes = list(graph.nodes)
    weight_pool = [0.5, 1.0, 1.5] if seed % 2 else None

    def weight() -> float:
        return rng.choice(weight_pool) if weight_pool else rng.uniform(0.1, 2.0)

    for i in range(1, n):
        graph.add_edge(nodes[rng.randrange(i)], nodes[i], weight(), "intra")
    for _ in range(rng.randint(0, 2)):
        left, right = rng.sample(nodes, 2)
        if graph.edge_between(left, right) is None:
            graph.add_edge(left, right, weight(), "intra")
    return graph, rng.sample(nodes, rng.randint(2, min(4, n)))


def test_early_stop_matches_reference_on_sparse_graphs():
    """The search that stops on its last possible emission returns the
    reference's trees, and those of the same search with the count
    switched off (``COUNT_BUDGET = 0``); the stop must fire somewhere."""
    saved_pops: list[int] = []

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def check(seed: int) -> None:
        graph, terminals = _sparse_graph(seed)
        k = random.Random(seed + 1).randint(1, 12)
        _assert_topk_parity(graph, terminals, k, bool(seed % 2))
        graph.steiner_cache.clear()
        with recorded_pops() as stopped_pops:
            stopped = top_k_steiner_trees(graph, terminals, k)
        graph.steiner_cache.clear()
        with recorded_pops() as all_pops, mock.patch.object(topk, "COUNT_BUDGET", 0):
            unstopped = top_k_steiner_trees(graph, terminals, k)
        _assert_same_trees(stopped, unstopped)
        assert len(stopped_pops) <= len(all_pops)
        saved_pops.append(len(all_pops) - len(stopped_pops))

    check()
    assert sum(saved > 0 for saved in saved_pops) >= 10


def _lollipop_graph(seed: int) -> tuple[SchemaGraph, list[ColumnRef]]:
    """A random core with terminal-free cycles and lollipops hung off it.

    Around a connected core (a shuffled chain plus chords) holding the
    terminals it hangs cycles that share one node with the core and
    lollipops (a chain from a core node ending in a cycle). The pendant
    peel keeps them all, since every node has degree two or more, yet
    no terminal-leaved tree enters one, because it would have to leave
    through the node it came in by. Sometimes a terminal sits on a
    lollipop, so the trees do run into it.
    """
    rng = random.Random(seed)
    weight_pool = [0.5, 1.0, 1.5] if seed % 2 else None

    def weight() -> float:
        return rng.choice(weight_pool) if weight_pool else rng.uniform(0.1, 2.0)

    n_core = rng.randint(3, 6)
    cycle_sizes = [rng.randint(2, 4) for _ in range(rng.randint(0, 2))]
    lollipops = [
        (rng.randint(1, 2), rng.randint(3, 4)) for _ in range(rng.randint(0, 2))
    ]
    if not cycle_sizes and not lollipops:
        cycle_sizes.append(2)
    n = n_core + sum(cycle_sizes) + sum(stem + loop for stem, loop in lollipops)
    graph = _edgeless_graph(n, "lollipop")
    fresh = iter(list(graph.nodes))
    core = [next(fresh) for _ in range(n_core)]
    rng.shuffle(core)
    for left, right in zip(core, core[1:]):
        graph.add_edge(left, right, weight(), "intra")
    for _ in range(rng.randint(0, n_core)):
        left, right = rng.sample(core, 2)
        if graph.edge_between(left, right) is None:
            graph.add_edge(left, right, weight(), "intra")
    terminals = rng.sample(core, rng.randint(2, min(3, n_core)))
    for size in cycle_sizes:  # a cycle through one core node
        cycle = [rng.choice(core)] + [next(fresh) for _ in range(size)]
        for left, right in zip(cycle, cycle[1:] + cycle[:1]):
            graph.add_edge(left, right, weight(), "intra")
    for stem, loop in lollipops:  # a chain from the core into a cycle
        chain = [rng.choice(core)] + [next(fresh) for _ in range(stem + loop)]
        for left, right in zip(chain, chain[1:]):
            graph.add_edge(left, right, weight(), "intra")
        graph.add_edge(chain[-1], chain[stem], weight(), "intra")
        if rng.random() < 0.2:
            terminals.append(rng.choice(chain[1:]))
    return graph, terminals


def test_union_restriction_matches_reference_on_lollipop_graphs():
    """With fewer than k trees the search grows only through the nodes of
    those trees; it returns the reference's trees, and those of the
    search with only the pendant peel, and the restriction must cut pops
    somewhere."""
    saved_pops: list[int] = []
    count_trees = topk._count_trees

    def peel_only(neighbors, terminals, inert, cap, budget):
        count, _union = count_trees(neighbors, terminals, inert, cap, budget)
        return count, ~inert

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def check(seed: int) -> None:
        graph, terminals = _lollipop_graph(seed)
        rng = random.Random(seed + 1)
        k = rng.choice([1, 2, 3, rng.randint(1, 12), 12])
        _assert_topk_parity(graph, terminals, k, bool(seed % 2))
        graph.steiner_cache.clear()
        with recorded_pops() as restricted_pops:
            restricted = top_k_steiner_trees(graph, terminals, k)
        graph.steiner_cache.clear()
        with recorded_pops() as peeled_pops, mock.patch.object(
            topk, "_count_trees", peel_only
        ):
            peeled = top_k_steiner_trees(graph, terminals, k)
        _assert_same_trees(restricted, peeled)
        assert len(restricted_pops) <= len(peeled_pops)
        saved_pops.append(len(peeled_pops) - len(restricted_pops))

    check()
    assert sum(saved > 0 for saved in saved_pops) >= 10


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
