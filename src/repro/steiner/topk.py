"""Top-k Steiner tree enumeration with sub-tree pruning.

QUEST's backward step needs not one but the *top-k* join paths per
configuration. We extend the dynamic-programming-on-(vertex, terminal-set)
approach of Ding et al.'s DPBF ("Finding top-k min-cost connected trees in
databases", ICDE 2007 — the paper's reference [3]) to work on the schema
graph: states ``(v, S)`` — the best trees rooted at ``v`` covering terminal
subset ``S`` — are popped from a priority queue in increasing cost and
grown by edges or merged at shared roots. Keeping up to *k* entries per
state yields the k cheapest trees.

As in QUEST, trees that duplicate or merely extend an already-emitted tree
(i.e. contain a previously computed tree as a sub-tree while connecting the
same terminals) are discarded, so the k results are structurally distinct
join paths rather than one path plus k-1 padded variants.

The search runs entirely on integers: nodes, edges and terminals are
interned through :meth:`~repro.steiner.graph.SchemaGraph.compact`, and
every tree in flight is a pair of bitmasks (edge set, node set). Growing
a tree is a bitwise OR, the cycle check is a bit test, merge disjointness
is ``a & b == 0`` and the sub-tree redundancy filter is
``prior & sig == prior`` — no frozenset is allocated until a finished tree
is emitted. The trees accepted at one (root, terminal mask) state form an
insertion-ordered dict keyed by edge mask, so the duplicate check is one
hash lookup and the merge scan visits them in acceptance order.

Before searching, the bitmask search peels the terminal-free pendant
subtrees: it repeatedly removes non-terminal nodes of degree at most one,
and growth never enters a removed ("inert") node. Every terminal lies
outside such a subtree, so a state rooted at an inert node v holds v's
edge toward the rest of the graph, and two states at v always share an
edge and never merge. Its terminal mask is its parent's, which was not
full (full-mask states never grow), so it is never emitted. It can only
grow deeper into the subtree, and its bucket is read only by other inert
states. Skipping them leaves every other pop, acceptance and emission in
place: the tiebreak counter stays monotonic, so the remaining states keep
their relative order.

:func:`top_k_steiner_trees_reference` runs the original frozenset
formulation, without the peel: the executable specification, called by
the parity tests and the test-side oracle (``tests/oracle.py``), never by
the engine. Apart from the inert states it never lets in, the bitmask
search pops and pushes exactly what the reference does, so both return
identical trees in identical order.

Enumeration results are memoised on the graph itself: a
:class:`~repro.steiner.graph.SchemaGraph` carries a ``steiner_cache``
keyed by the frozen terminal set (plus k, the pruning flags and the
search function, so the two implementations never share entries), so the
same terminal combination — which recurs both across a query's
configurations and across queries — is answered without re-running the
search. Graph mutation invalidates the cache.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Sequence

from repro import faults
from repro.bits import iter_bits
from repro.db.schema import ColumnRef
from repro.errors import SteinerError
from repro.steiner.graph import SchemaGraph
from repro.steiner.tree import SteinerTree

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.resilience import Deadline

__all__ = ["top_k_steiner_trees", "top_k_steiner_trees_reference"]


def top_k_steiner_trees(
    graph: SchemaGraph,
    terminals: Sequence[ColumnRef],
    k: int,
    prune_supertrees: bool = True,
    max_pops: int = 200_000,
    deadline: "Deadline | None" = None,
) -> list[SteinerTree]:
    """Enumerate up to *k* cheapest Steiner trees connecting *terminals*.

    Args:
        graph: the weighted schema graph.
        terminals: attributes to connect (duplicates collapse).
        k: number of trees wanted.
        prune_supertrees: discard candidates that contain an already
            emitted tree as a sub-tree (QUEST's redundancy filter); set to
            ``False`` to enumerate raw k-best trees.
        max_pops: safety valve on queue pops for adversarial graphs. The
            peeled search pops no inert state, so it reaches the cap later
            than :func:`top_k_steiner_trees_reference`; the two agree tree
            for tree whenever neither search reaches it.
        deadline: cooperative cancellation point. The pop loop checks
            remaining budget every 64 pops and, on expiry, stops and
            returns the trees emitted so far (possibly none) — best-effort
            partial results, which are deliberately *not* memoised in the
            graph's Steiner cache.

    Returns:
        Trees in increasing weight order (possibly fewer than *k*).
    """
    return _memoised(
        _search_interned,
        graph,
        terminals,
        k,
        prune_supertrees,
        max_pops,
        deadline,
    )


def top_k_steiner_trees_reference(
    graph: SchemaGraph, terminals: Sequence[ColumnRef], k: int, **options
) -> list[SteinerTree]:
    """:func:`top_k_steiner_trees` on the frozenset search (executable
    specification): same options, same memoisation, identical trees."""
    return _memoised(_search_reference, graph, terminals, k, **options)


def _memoised(
    search,
    graph: SchemaGraph,
    terminals: Sequence[ColumnRef],
    k: int,
    prune_supertrees: bool = True,
    max_pops: int = 200_000,
    deadline: "Deadline | None" = None,
) -> list[SteinerTree]:
    """Validate, consult the graph's Steiner cache, run *search*, memoise."""
    if k <= 0:
        raise SteinerError(f"k must be positive, got {k}")
    terminal_list = sorted(set(terminals), key=str)
    if not terminal_list:
        raise SteinerError("no terminals")
    for terminal in terminal_list:
        if terminal not in graph:
            raise SteinerError(f"terminal not in graph: {terminal}")
    terminal_set = frozenset(terminal_list)
    if len(terminal_list) == 1:
        return [SteinerTree(terminal_set, frozenset(), 0.0)]

    cache = getattr(graph, "steiner_cache", None)
    # The topology revision observed *before* the search is part of the
    # key: trees enumerated over the old topology but stored after a
    # concurrent add_edge (which bumps the version and clears the cache)
    # land under the old version, unreachable to post-mutation readers.
    cache_key = (
        terminal_set,
        k,
        prune_supertrees,
        max_pops,
        search,
        getattr(graph, "version", 0),
    )
    if cache is not None:
        cached = cache.get(cache_key)
        if cached is not None:
            return list(cached)

    # A label lookup per terminal; a disconnected set is never stored, so
    # each call misses and raises here.
    if not graph.connected(terminal_list):
        raise SteinerError(f"terminals are disconnected: {terminal_list}")

    results = search(
        graph, terminal_list, terminal_set, k, prune_supertrees, max_pops, deadline
    )

    # A run whose deadline died mid-enumeration may be truncated; caching
    # it would serve partial answers to later unbounded requests.
    if cache is not None and not (deadline is not None and deadline.expired()):
        # Trees are frozen; storing a tuple keeps cached results immutable.
        cache.put(cache_key, tuple(results))
    return results


def _search_interned(
    graph: SchemaGraph,
    terminal_list: list[ColumnRef],
    terminal_set: frozenset,
    k: int,
    prune_supertrees: bool,
    max_pops: int,
    deadline: "Deadline | None" = None,
) -> list[SteinerTree]:
    """The bitmask DPBF search (every in-flight tree is two integers)."""
    compact = graph.compact()
    node_index = compact.index
    neighbors = compact.neighbors
    edge_list = compact.edge_list

    full_mask = (1 << len(terminal_list)) - 1
    #: per node index: the terminal bit it carries (0 for Steiner nodes) —
    #: a flat list, indexed on the grow inner loop.
    terminal_bit = [0] * len(compact)
    terminal_nodes = 0
    for i, t in enumerate(terminal_list):
        terminal_bit[node_index[t]] = 1 << i
        terminal_nodes |= 1 << node_index[t]
    inert = _inert_nodes(neighbors, terminal_nodes)

    counter = itertools.count()
    #: heap entries: (cost, tiebreak, root index, terminal mask, edge mask,
    #: node mask) — comparisons never pass the unique tiebreak.
    heap: list[tuple[float, int, int, int, int, int]] = []
    #: per root, per terminal mask: edge mask -> (cost, node mask) accepted
    #: so far (bounded by k). Indexing by root first keeps the merge scan
    #: to the one root that can produce merges; insertion order within a
    #: root matches the flat dict's, and within a bucket it is acceptance
    #: order, so the push sequence is unchanged.
    accepted: dict[int, dict[int, dict[int, tuple[float, int]]]] = {}

    for i, t in enumerate(terminal_list):
        node = node_index[t]
        heapq.heappush(heap, (0.0, next(counter), node, 1 << i, 0, 1 << node))

    results: list[SteinerTree] = []
    emitted_signatures: list[int] = []
    seen_results: set[int] = set()
    pops = 0

    while heap and len(results) < k and pops < max_pops:
        if pops & 63 == 0:
            faults.fire("steiner.expand")
            if deadline is not None and deadline.expired():
                break  # cooperative cancellation: emit best-so-far trees
        cost, _tie, root, mask, edges, tree_nodes = heapq.heappop(heap)
        pops += 1
        by_mask = accepted.get(root)
        if by_mask is None:
            by_mask = accepted[root] = {}
        bucket = by_mask.get(mask)
        if bucket is None:
            bucket = by_mask[mask] = {}
        if len(bucket) >= k or edges in bucket:
            continue
        bucket[edges] = (cost, tree_nodes)

        if mask == full_mask:
            if edges in seen_results:
                continue
            # Grown/merged states are connected by construction and
            # ``tree_nodes`` is exactly the edge-endpoint set, so a cycle
            # (node-overlapping merge) is the only reachable validity
            # failure — the edge count alone decides it.
            if edges.bit_count() != tree_nodes.bit_count() - 1:
                continue
            if prune_supertrees and any(
                prior & edges == prior for prior in emitted_signatures
            ):
                continue
            seen_results.add(edges)
            emitted_signatures.append(edges)
            results.append(
                SteinerTree(
                    terminal_set,
                    frozenset(edge_list[i] for i in iter_bits(edges)),
                    cost,
                )
            )
            continue

        # Grow: extend the tree along one incident edge. Re-entering a
        # tree node would close a cycle (an edge already in the tree joins
        # two tree nodes, so this also skips it); entering an inert node
        # would queue a state that can never merge or be emitted.
        blocked = tree_nodes | inert
        for neighbour, weight, edge_position in neighbors[root]:
            if blocked >> neighbour & 1:
                continue
            heapq.heappush(
                heap,
                (
                    cost + weight,
                    next(counter),
                    neighbour,
                    mask | terminal_bit[neighbour],
                    edges | (1 << edge_position),
                    tree_nodes | (1 << neighbour),
                ),
            )

        # Merge: combine with accepted trees sharing this root and
        # covering a disjoint terminal subset.
        for other_mask, other_bucket in by_mask.items():
            if other_mask & mask:
                continue
            for other_edges, (other_cost, other_nodes) in other_bucket.items():
                if edges & other_edges:
                    continue  # overlapping edges: cost would be wrong
                heapq.heappush(
                    heap,
                    (
                        cost + other_cost,
                        next(counter),
                        root,
                        mask | other_mask,
                        edges | other_edges,
                        tree_nodes | other_nodes,
                    ),
                )

    return results


def _inert_nodes(neighbors: list[list[tuple[int, float, int]]], terminals: int) -> int:
    """Bitmask of the nodes in terminal-free pendant subtrees.

    Repeatedly removes non-terminal nodes of degree at most one from the
    graph whose adjacency lists *neighbors* holds, without mutating it
    (degree counts adjacency entries; the schema graph has no parallel
    edges or self-loops). What is removed is every node of a
    terminal-free tree hanging off the rest of the graph by one edge, plus
    every node of an acyclic component without terminals. *terminals* is
    the bitmask of the terminal node indices, which are never removed.
    """
    degree = [len(adjacent) for adjacent in neighbors]
    stack = [
        node
        for node, count in enumerate(degree)
        if count <= 1 and not terminals >> node & 1
    ]
    inert = 0
    while stack:
        node = stack.pop()
        inert |= 1 << node
        for neighbour, _weight, _edge_position in neighbors[node]:
            if inert >> neighbour & 1:
                continue
            degree[neighbour] -= 1
            # Degree falls through 1 once, so each node is stacked once.
            if degree[neighbour] == 1 and not terminals >> neighbour & 1:
                stack.append(neighbour)
    return inert


def _search_reference(
    graph: SchemaGraph,
    terminal_list: list[ColumnRef],
    terminal_set: frozenset,
    k: int,
    prune_supertrees: bool,
    max_pops: int,
    deadline: "Deadline | None" = None,
) -> list[SteinerTree]:
    """The frozenset DPBF search (executable specification).

    Kept verbatim as the parity oracle for :func:`_search_interned`. It
    does not peel terminal-free pendant subtrees, so it also pops the
    inert states the bitmask search never queues; every other pop comes
    in the same order, so the emitted trees match tree for tree.
    """
    full_mask = (1 << len(terminal_list)) - 1
    terminal_bit = {t: 1 << i for i, t in enumerate(terminal_list)}

    counter = itertools.count()
    #: heap entries: (cost, tiebreak, root, mask, edge frozenset)
    heap: list[tuple[float, int, ColumnRef, int, frozenset]] = []
    #: per (root, mask): edge sets already accepted (bounded by k)
    accepted: dict[tuple[ColumnRef, int], list[tuple[float, frozenset]]] = {}

    for terminal, bit in terminal_bit.items():
        heapq.heappush(heap, (0.0, next(counter), terminal, bit, frozenset()))

    results: list[SteinerTree] = []
    emitted_signatures: list[frozenset] = []
    seen_results: set[frozenset] = set()
    pops = 0

    while heap and len(results) < k and pops < max_pops:
        if pops & 63 == 0:
            faults.fire("steiner.expand")
            if deadline is not None and deadline.expired():
                break  # cooperative cancellation: emit best-so-far trees
        cost, _tie, root, mask, edges = heapq.heappop(heap)
        pops += 1
        state = (root, mask)
        bucket = accepted.setdefault(state, [])
        if len(bucket) >= k or any(edges == prior for _c, prior in bucket):
            continue
        bucket.append((cost, edges))

        if mask == full_mask:
            candidate = SteinerTree(terminal_set, edges, cost)
            signature = candidate.signature()
            if signature in seen_results:
                continue
            if not candidate.is_valid_tree():
                continue
            if prune_supertrees and any(
                prior <= signature for prior in emitted_signatures
            ):
                continue
            seen_results.add(signature)
            emitted_signatures.append(signature)
            results.append(candidate)
            continue

        # Grow: extend the tree along one incident edge.
        tree_nodes = {root}
        for edge in edges:
            tree_nodes.add(edge.left)
            tree_nodes.add(edge.right)
        for neighbour, edge in graph.neighbors(root):
            if edge in edges:
                continue
            new_edges = edges | {edge}
            new_mask = mask | terminal_bit.get(neighbour, 0)
            # Re-entering an existing node would close a cycle.
            if neighbour in tree_nodes:
                continue
            heapq.heappush(
                heap,
                (cost + edge.weight, next(counter), neighbour, new_mask, new_edges),
            )

        # Merge: combine with accepted trees sharing this root and
        # covering a disjoint terminal subset.
        for (other_root, other_mask), other_bucket in accepted.items():
            if other_root != root or other_mask & mask:
                continue
            for other_cost, other_edges in other_bucket:
                union = edges | other_edges
                if len(union) != len(edges) + len(other_edges):
                    continue  # overlapping edges: cost would be wrong
                merged_cost = cost + other_cost
                heapq.heappush(
                    heap,
                    (
                        merged_cost,
                        next(counter),
                        root,
                        mask | other_mask,
                        union,
                    ),
                )

    return results
