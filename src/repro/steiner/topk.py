"""Top-k Steiner tree enumeration over the schema graph.

QUEST's backward step needs not one but the *top-k* join paths per
configuration. We extend the dynamic-programming-on-(vertex, terminal-set)
approach of Ding et al.'s DPBF ("Finding top-k min-cost connected trees in
databases", ICDE 2007 — the paper's reference [3]) to work on the schema
graph: states ``(v, S)`` — the best trees rooted at ``v`` covering terminal
subset ``S`` — are popped from a priority queue in increasing cost and
grown by edges or merged at shared roots. Keeping up to *k* entries per
state yields the k cheapest trees.

As in QUEST, the k results are structurally distinct join paths, never
one path plus k-1 padded variants: every emitted tree is *terminal-leaved*
(each of its leaves is a terminal, see below), and a tree that strictly
contains another tree spanning the same terminals has a leaf outside it,
which is no terminal. So no emitted tree extends another, and the
bitmask search needs no sub-tree redundancy filter; the reference keeps
QUEST's explicit filter as the specification.

The search runs entirely on integers: nodes, edges and terminals are
interned through :meth:`~repro.steiner.graph.SchemaGraph.compact`, and
every tree in flight is a pair of bitmasks (edge set, node set). Growing
a tree is a bitwise OR, the cycle check is a bit test and merge
disjointness is ``a & b == 0`` — no frozenset is allocated until a
finished tree is emitted. The trees accepted at one (root, terminal mask)
state form an insertion-ordered dict keyed by edge mask, so the duplicate
check is one hash lookup and the merge scan visits them in acceptance
order.

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

The bitmask search also stops on the pop that emits the last tree it
could ever emit. Every state's leaves other than its root are terminals:
a seed state is one terminal; growth makes the new root a leaf and
raises the old root's degree; a merge unites two states at their common
root, whose degrees add. A full-mask state never grows, and it is
completed either by growing into a terminal (its non-full parent gained
that terminal's bit) or by a merge, whose root then has degree two or
more or, when one side is a bare seed, is that terminal. So every
emitted tree spans the terminals and is terminal-leaved, and
``seen_results`` makes the emitted trees distinct. Before its pop loop
the search counts the terminal-leaved trees of the peeled graph
(:func:`_count_trees`, capped at k); once that many are out, no later
pop can emit anything, and the pops that would follow only prove it.
The emitted trees, their costs and their order are therefore unchanged.
The count is bounded by a step budget (:data:`COUNT_BUDGET`); an overrun
leaves the count unknown and the search runs until its heap, k or
``max_pops`` ends it, as it would without the stop.

When the count is known and below k, the walk has completed every
terminal-leaved tree, and it also returns the union of their nodes. The
search then treats every node outside that union as inert, not only the
peeled ones (which no such tree holds). This drops, for example, a
terminal-free cycle hanging off the rest of the graph, which the peel
keeps. It is exact:

- *Lemma.* Every node of a state lies on a path inside that state
  between two members of its terminals and its root. A seed is its own
  terminal. Growth from root r to r' extends each path that ends at r by
  the new edge, and r' is the new root. A merge at root r unites two
  states whose paths end at their terminals or at r. The same holds for
  the cyclic states merges can build.
- So let the root r of a state lie in some terminal-leaved tree T, and
  let u be a state node outside T. T holds r and every terminal, so by
  the lemma u lies on a segment of a state path whose two ends are
  distinct nodes of T and whose interior avoids T. Add that segment to
  T and drop one edge e of T's path between its ends. Each side of T
  without e holds a terminal (a side without one would have a
  non-terminal leaf of T), and the segment is now the only link
  between the sides, so u lies on a path between two terminals. Pruning
  non-terminal leaves thus keeps u and leaves a terminal-leaved tree
  that holds it: u is in the union.
- Hence a state that holds a node outside the union is rooted outside
  it. Growth keeps the node, so every descendant is rooted outside too;
  such a state merges only with states at its own root, never with one
  inside the union, and it is never emitted (every emitted tree is a
  terminal-leaved tree). The states rooted inside the union, their
  buckets and their pushes are the same with or without the family,
  and the tiebreak counter stays monotonic, so every other pop,
  acceptance and emission keeps its order, as with the peel.

At the cap or on a budget overrun the walk stopped early, its union may
miss trees, and the search keeps the peel mask alone.

:func:`top_k_steiner_trees_reference` runs the original frozenset
formulation, without the peel, the union, the early stop or the count:
the executable specification, called by the parity tests and the
test-side oracle (``tests/oracle.py``), never by the engine. Apart from
the inert states it never lets in and the pops after its last emission,
the bitmask search pops and pushes exactly what the reference does, so
both return identical trees in identical order.

Enumeration results are memoised on the graph itself: a
:class:`~repro.steiner.graph.SchemaGraph` carries a ``steiner_cache``
keyed by the frozen terminal set (plus k, the pop cap, the search
function and the reference's pruning flag, so the two implementations
never share entries), so the same terminal combination — which recurs
both across a query's configurations and across queries — is answered
without re-running the search. Graph mutation invalidates the cache.
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


#: Neighbour visits :func:`_count_trees` may spend before it gives up.
#: An overrun only costs the early stop: the search then runs as it would
#: without one, so the budget bounds the counting on dense graphs and never
#: changes a result. Every count of the write_oltp (seed 7) and of the
#: mondial, dblp and imdb gold searches takes fewer than 1,000 visits.
COUNT_BUDGET = 5_000


def top_k_steiner_trees(
    graph: SchemaGraph,
    terminals: Sequence[ColumnRef],
    k: int,
    max_pops: int = 200_000,
    deadline: "Deadline | None" = None,
) -> list[SteinerTree]:
    """Enumerate up to *k* cheapest Steiner trees connecting *terminals*.

    Args:
        graph: the weighted schema graph.
        terminals: attributes to connect (duplicates collapse).
        k: number of trees wanted.
        max_pops: safety valve on queue pops for adversarial graphs. The
            search pops no inert state (peeled or, with fewer than k
            trees, outside all of them) and stops on the pop that
            emits the last tree the peeled graph can yield, so it reaches
            the cap later than :func:`top_k_steiner_trees_reference`; the
            two agree tree for tree whenever neither search reaches it.
        deadline: cooperative cancellation point. The pop loop checks
            remaining budget every 64 pops and, on expiry, stops and
            returns the trees emitted so far (possibly none) — best-effort
            partial results, which are deliberately *not* memoised in the
            graph's Steiner cache.

    Returns:
        Trees in increasing weight order (possibly fewer than *k*).
    """
    return _memoised(_search_interned, graph, terminals, k, max_pops, deadline)


def top_k_steiner_trees_reference(
    graph: SchemaGraph,
    terminals: Sequence[ColumnRef],
    k: int,
    max_pops: int = 200_000,
    deadline: "Deadline | None" = None,
    *,
    prune_supertrees: bool = True,
) -> list[SteinerTree]:
    """:func:`top_k_steiner_trees` on the frozenset search (executable
    specification): same options, same memoisation, identical trees.

    *prune_supertrees* applies QUEST's explicit redundancy filter:
    discard a candidate that contains an already emitted tree. It never
    fires (see the module docstring), so ``False`` yields the same trees.
    """
    return _memoised(
        _search_reference, graph, terminals, k, max_pops, deadline, prune_supertrees
    )


def _memoised(
    search,
    graph: SchemaGraph,
    terminals: Sequence[ColumnRef],
    k: int,
    max_pops: int,
    deadline: "Deadline | None",
    *options,
) -> list[SteinerTree]:
    """Validate, consult the graph's Steiner cache, run *search*, memoise.

    *options* are passed on to *search* after its common arguments and
    are part of the cache key.
    """
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
        max_pops,
        search,
        *options,
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
        graph, terminal_list, terminal_set, k, max_pops, deadline, *options
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
    # The search ends on the emission that makes ``len(results)`` reach
    # ``last``: k, or every tree it can yield (module docstring). The
    # terminals are connected, so 1 <= last <= k.
    yieldable, union = _count_trees(
        neighbors, [node_index[t] for t in terminal_list], inert, k, COUNT_BUDGET
    )
    last = k if yieldable is None else yieldable
    if last < k:
        # The walk saw every tree: no state through a node outside their
        # union can be emitted or feed an emission (module docstring).
        inert = ((1 << len(compact)) - 1) & ~union

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
    seen_results: set[int] = set()
    pops = 0

    while heap and pops < max_pops:
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
            seen_results.add(edges)
            results.append(
                SteinerTree(
                    terminal_set,
                    frozenset(edge_list[i] for i in iter_bits(edges)),
                    cost,
                )
            )
            if len(results) == last:
                break
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


def _count_trees(
    neighbors: list[list[tuple[int, float, int]]],
    terminals: list[int],
    inert: int,
    cap: int,
    budget: int,
) -> tuple[int | None, int]:
    """How many terminal-leaved trees span *terminals*, capped at *cap*,
    and the union of their node masks.

    A terminal-leaved tree is a subtree of the graph whose adjacency
    lists *neighbors* holds, containing every node index in *terminals*,
    whose leaves are all terminals. Its nodes avoid the *inert* mask
    (:func:`_inert_nodes`): the farthest inert node of such a tree would
    be a non-terminal leaf. Each tree is one sequence of choices, taken in
    terminal order from the first terminal alone: for each terminal not
    yet in the tree, one simple path from it to the tree whose interior
    avoids the tree and *inert* (the interior may pass later terminals).
    The tree fixes each path, so distinct sequences give distinct trees,
    and every sequence gives a terminal-leaved tree.

    Returns ``(min(count, cap), union)``, or ``(None, union)`` once more
    than *budget* neighbour visits were spent: the count is then unknown,
    never partial. *union* ORs the node masks of the trees the walk
    completed, so it holds every node of every such tree only when the
    count is below *cap*; at the cap or on an overrun the walk stopped
    early and the union may miss trees.
    """
    steps = 0
    found = 0
    union = 0

    def attach(tree: int, i: int) -> bool:
        """Count the trees that grow *tree* from terminal *i* on; ``True``
        once the cap or the budget is hit."""
        nonlocal steps, found, union
        while i < len(terminals) and tree >> terminals[i] & 1:
            i += 1
        if i == len(terminals):
            found += 1
            union |= tree
            return found >= cap
        start = terminals[i]
        #: depth-first over simple paths from *start*: (path node mask,
        #: the last node's neighbours not yet tried)
        stack = [(1 << start, iter(neighbors[start]))]
        while stack:
            path, untried = stack[-1]
            for neighbour, _weight, _edge_position in untried:
                steps += 1
                if steps > budget:
                    return True
                if tree >> neighbour & 1:
                    if attach(tree | path, i + 1):
                        return True
                elif not (path | inert) >> neighbour & 1:
                    stack.append((path | 1 << neighbour, iter(neighbors[neighbour])))
                    break
            else:
                stack.pop()
        return False

    attach(1 << terminals[0], 1)
    return (None if steps > budget else min(found, cap)), union


def _search_reference(
    graph: SchemaGraph,
    terminal_list: list[ColumnRef],
    terminal_set: frozenset,
    k: int,
    max_pops: int,
    deadline: "Deadline | None",
    prune_supertrees: bool,
) -> list[SteinerTree]:
    """The frozenset DPBF search (executable specification).

    Kept verbatim as the parity oracle for :func:`_search_interned`. It
    does not peel terminal-free pendant subtrees, so it also pops the
    inert states the bitmask search never queues, and it does not stop
    on its last possible emission, so it pops on until k trees, its heap
    or ``max_pops`` end it; every other pop comes in the same order, so
    the emitted trees match tree for tree.
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
