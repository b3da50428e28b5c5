"""The weighted schema graph the backward step searches.

Per the paper, the graph is built over the database *schema*, not the
instance: one node per attribute, with edges connecting (i) the node of a
table's primary key with every other attribute of the same table and
(ii) the nodes of each primary/foreign key pair. Composite primary keys
contribute one hub node per key column.

The graph is undirected with positive edge weights; nodes are
:class:`~repro.db.schema.ColumnRef` values so trees convert directly into
join paths.

Two derived structures are cached on the graph and invalidated whenever
:meth:`SchemaGraph.add_edge` mutates it:

* a :class:`CompactGraph` — nodes interned to small integers with
  array-shaped adjacency, the representation every optimised Steiner
  kernel (Dreyfus-Wagner DP, top-k enumeration, Dijkstra) runs on;
* the all-pairs shortest-path cache (:meth:`SchemaGraph.shortest_paths_from`)
  feeding both the KMB approximation and the Dreyfus-Wagner base cases, so
  one graph answers every per-source Dijkstra exactly once between
  mutations.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.cache import LRUCache
from repro.db.schema import ColumnRef, ForeignKey, Schema
from repro.errors import SteinerError
from repro.forksafe import register_lock_holder
from repro.steiner.plancache import SteinerPlanCache


def _reset_graph_lock(graph: "SchemaGraph") -> None:
    graph._derived_lock = threading.Lock()

__all__ = [
    "CompactGraph",
    "EdgeKind",
    "SchemaEdge",
    "SchemaGraph",
    "STEINER_CACHE_SIZE",
]

#: Capacity of the per-graph Steiner-result cache. Terminal sets are drawn
#: from configurations over one schema, so the working set is small; the
#: bound only guards against adversarial workloads.
STEINER_CACHE_SIZE = 512


@dataclass(frozen=True)
class SchemaEdge:
    """An undirected weighted edge of the schema graph."""

    left: ColumnRef
    right: ColumnRef
    weight: float
    kind: str  # "intra" (pk-to-attribute) or "join" (pk-fk pair)
    foreign_key: ForeignKey | None = None
    _key: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", frozenset((self.left, self.right)))

    @property
    def key(self) -> frozenset:
        """Order-insensitive identity of the edge (computed once: every
        tree signature over this edge shares the one frozenset)."""
        return self._key

    def other(self, node: ColumnRef) -> ColumnRef:
        """The endpoint opposite *node*."""
        if node == self.left:
            return self.right
        if node == self.right:
            return self.left
        raise SteinerError(f"{node} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.left} --{self.weight:.3f}--> {self.right} [{self.kind}]"


class EdgeKind:
    """Edge kind constants (plain strings keep edges hashable/printable)."""

    INTRA = "intra"
    JOIN = "join"


_INF = float("inf")


class CompactGraph:
    """An immutable integer-interned snapshot of a :class:`SchemaGraph`.

    Nodes are interned to ``0..n-1`` in the graph's node order and edges to
    ``0..m-1`` in edge-insertion order, so Steiner kernels can carry node
    sets, edge sets and terminal subsets as integer bitmasks and index flat
    lists instead of hashing :class:`~repro.db.schema.ColumnRef` values.
    ``name_rank`` orders nodes by ``str(node)`` — the deterministic
    tie-break every shortest-path predecessor choice uses.

    Obtain instances through :meth:`SchemaGraph.compact`; they are rebuilt
    lazily after graph mutation.
    """

    __slots__ = (
        "nodes",
        "index",
        "name_rank",
        "neighbors",
        "edge_list",
        "edge_index",
        "edge_node_masks",
        "version",
        "_dijkstra_cache",
        "_edge_arrays",
    )

    def __init__(self, graph: "SchemaGraph") -> None:
        #: The topology revision this snapshot was built from — coherent
        #: because snapshots build under the same lock mutations hold.
        #: Consumers stamp it into shared-cache keys (the Steiner plan
        #: cache), so a row computed over a retained pre-mutation
        #: snapshot can never be read back under the new topology.
        self.version: int = graph.version
        self.nodes: tuple[ColumnRef, ...] = tuple(graph._adjacency)
        self.index: dict[ColumnRef, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        names = [str(node) for node in self.nodes]
        order = sorted(range(len(self.nodes)), key=names.__getitem__)
        self.name_rank = [0] * len(self.nodes)
        for rank, i in enumerate(order):
            self.name_rank[i] = rank
        self.edge_list: tuple[SchemaEdge, ...] = tuple(graph._edges.values())
        self.edge_index: dict[frozenset, int] = {
            edge.key: i for i, edge in enumerate(self.edge_list)
        }
        #: per node: [(neighbour index, edge weight, edge index), ...]
        #: preserving the adjacency iteration order of the backing graph;
        #: materialise edges through :attr:`edge_list` when needed.
        self.neighbors: list[list[tuple[int, float, int]]] = [
            [
                (self.index[neighbour], edge.weight, self.edge_index[edge.key])
                for neighbour, edge in adjacency.items()
            ]
            for adjacency in graph._adjacency.values()
        ]
        #: per edge: the bitmask of its two endpoint node indices.
        self.edge_node_masks: list[int] = [
            (1 << self.index[edge.left]) | (1 << self.index[edge.right])
            for edge in self.edge_list
        ]
        self._dijkstra_cache: dict[int, tuple[list[float], list[int]]] = {}
        #: Lazily-built directed edge arrays for the batched multi-source
        #: pass (see :meth:`distance_matrix`).
        self._edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def _directed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, destination, weight) arrays, one row per direction."""
        arrays = self._edge_arrays
        if arrays is None:
            src: list[int] = []
            dst: list[int] = []
            weights: list[float] = []
            for node, adjacency in enumerate(self.neighbors):
                for neighbour, weight, _edge_position in adjacency:
                    src.append(node)
                    dst.append(neighbour)
                    weights.append(weight)
            arrays = self._edge_arrays = (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            )
        return arrays

    def distance_matrix(
        self, sources: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """All-source shortest paths in one vectorised pass.

        Returns ``(distances, predecessors)`` arrays of shape
        ``(len(sources), n)``, row-aligned with *sources*; unreachable
        cells carry ``inf`` / ``-1``. Every row is **bit-identical** to
        :meth:`dijkstra` for the same source:

        - distances: synchronous Bellman-Ford rounds relax every directed
          edge with the same left-to-right float sums Dijkstra performs;
          positive weights make float path sums non-decreasing under
          extension, so the fixpoint is the minimum over simple paths —
          exactly Dijkstra's value.
        - predecessors: Dijkstra's tie rule resolves to "the neighbour
          with the smallest ``name_rank`` among those whose settled
          distance plus the edge weight *exactly* equals the final
          distance"; that closed form is evaluated directly here.

        Computed rows are stored in the per-source :meth:`dijkstra` cache
        (as lists), so later scalar calls are hits.
        """
        n = len(self.nodes)
        wanted = [s for s in dict.fromkeys(sources) if s not in self._dijkstra_cache]
        if wanted:
            esrc, edst, ew = self._directed_edges()
            k = len(wanted)
            # (n, k) layout: scatter-min by destination works on the rows.
            dist = np.full((n, k), _INF)
            dist[wanted, np.arange(k)] = 0.0
            if len(esrc):
                col_w = ew[:, None]
                for _ in range(n):
                    before = dist.copy()
                    np.minimum.at(dist, edst, dist[esrc] + col_w)
                    if np.array_equal(dist, before):
                        break
                # Predecessor extraction: min name_rank over edges whose
                # relaxation is exactly tight (finite sources only — an
                # inf + w == inf tie must not give unreachable nodes a
                # predecessor).
                rank = np.asarray(self.name_rank, dtype=np.int64)
                tight = (dist[esrc] + col_w == dist[edst]) & np.isfinite(dist[esrc])
                pred_rank = np.full((n, k), n, dtype=np.int64)
                np.minimum.at(
                    pred_rank, edst, np.where(tight, rank[esrc][:, None], n)
                )
                node_of_rank = np.empty(n, dtype=np.int64)
                node_of_rank[rank] = np.arange(n)
                preds = np.where(
                    pred_rank < n,
                    node_of_rank[np.minimum(pred_rank, n - 1)],
                    -1,
                )
            else:
                preds = np.full((n, k), -1, dtype=np.int64)
            for j, source in enumerate(wanted):
                self._dijkstra_cache[source] = (
                    dist[:, j].tolist(),
                    [int(p) for p in preds[:, j]],
                )
        distances = np.empty((len(sources), n))
        predecessors = np.empty((len(sources), n), dtype=np.int64)
        for row, source in enumerate(sources):
            cached_d, cached_p = self._dijkstra_cache[source]
            distances[row] = cached_d
            predecessors[row] = cached_p
        return distances, predecessors

    def dijkstra(self, source: int) -> tuple[list[float], list[int]]:
        """Single-source shortest paths from a node index (cached).

        Returns ``(distances, predecessors)`` as index-aligned lists;
        unreachable nodes carry ``inf`` / ``-1``. Predecessor ties on
        equal path weight break toward the predecessor whose ``str(node)``
        sorts first, making the maps independent of adjacency order (see
        :func:`repro.steiner.exact.shortest_paths`).
        """
        cached = self._dijkstra_cache.get(source)  # questlint: disable=cache-revision  # sealed per-snapshot cache: CompactGraph is immutable, mutation discards the whole snapshot (and this cache with it)
        if cached is not None:
            return cached
        n = len(self.nodes)
        distances = [_INF] * n
        predecessors = [-1] * n
        distances[source] = 0.0
        heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
        counter = 1
        settled = [False] * n
        name_rank = self.name_rank
        neighbors = self.neighbors
        while heap:
            distance, _tie, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            for neighbour, weight, _edge_position in neighbors[node]:
                candidate = distance + weight
                current = distances[neighbour]
                if candidate < current:
                    distances[neighbour] = candidate
                    predecessors[neighbour] = node
                    heapq.heappush(heap, (candidate, counter, neighbour))
                    counter += 1
                elif candidate == current and (
                    predecessors[neighbour] < 0
                    or name_rank[node] < name_rank[predecessors[neighbour]]
                ):
                    predecessors[neighbour] = node
        result = (distances, predecessors)
        self._dijkstra_cache[source] = result
        return result


class SchemaGraph:
    """Undirected weighted graph over a schema's attributes."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._adjacency: dict[ColumnRef, dict[ColumnRef, SchemaEdge]] = {}
        self._edges: dict[frozenset, SchemaEdge] = {}
        #: Cross-query cache of top-k Steiner enumerations, keyed by
        #: (frozen terminal set, k, pruning flags); consulted by
        #: :func:`repro.steiner.topk.top_k_steiner_trees`.
        self.steiner_cache = LRUCache(STEINER_CACHE_SIZE, label="steiner")
        #: Cross-query cache of Dreyfus-Wagner subset rows and singleton
        #: distance rows, keyed by frozen node-index subsets (see
        #: :mod:`repro.steiner.plancache`); superset/overlap queries reuse
        #: the shared rows. Cleared with the other derived caches.
        self.plan_cache = SteinerPlanCache()
        #: Monotonic topology revision: bumped whenever derived caches are
        #: invalidated (``add_edge`` / explicit resets). Part of
        #: ``Quest.version``, which keys the serving tier's result cache.
        self.version = 0
        #: Makes the version bump + derived-cache invalidation atomic
        #: against snapshot retention in :meth:`compact` — without it a
        #: builder could install a pre-mutation snapshot *after* the
        #: reset cleared it, pinning stale topology under the new version.
        self._derived_lock = threading.Lock()
        register_lock_holder(self, _reset_graph_lock)
        #: Lazily built integer-interned snapshot (see :meth:`compact`).
        self._compact: CompactGraph | None = None
        #: Per-source shortest-path maps keyed by (source node, topology
        #: revision) — the all-pairs cache the KMB approximation and
        #: Dreyfus-Wagner feed from. The revision in the key keeps a map
        #: computed over the old topology but stored after a concurrent
        #: mutation unreachable.
        self._sp_cache: dict[tuple[ColumnRef, int], tuple[dict, dict]] = {}
        for ref in schema.column_refs():
            self._adjacency[ref] = {}

    # -- construction ------------------------------------------------------

    def add_edge(
        self,
        left: ColumnRef,
        right: ColumnRef,
        weight: float,
        kind: str,
        foreign_key: ForeignKey | None = None,
    ) -> SchemaEdge:
        """Insert an edge; re-adding an edge keeps the *lighter* weight."""
        if left == right:
            raise SteinerError(f"self-loop on {left}")
        if left not in self._adjacency or right not in self._adjacency:
            missing = left if left not in self._adjacency else right
            raise SteinerError(f"unknown node: {missing}")
        if weight <= 0:
            raise SteinerError(f"edge weight must be positive, got {weight}")
        edge = SchemaEdge(left, right, weight, kind, foreign_key)
        # The keep-the-lighter-edge guard, the mutation, the version
        # bump and the cache invalidation form ONE critical section
        # (shared with the snapshot build in :meth:`compact`), so no
        # lock holder ever pairs a new version with the old topology —
        # and concurrent re-adds of one key cannot race past the guard
        # and keep the heavier edge. The per-node adjacency
        # dicts are replaced copy-on-write (O(degree)) because lock-free
        # readers iterate them mid-search (``neighbors()`` in the
        # reference kernels) and must keep their consistent pre-mutation
        # view; ``_edges`` is inserted in place — its only concurrent
        # read shapes (``.get``, one-shot ``tuple(values())``) are
        # GIL-atomic, and a full copy would make bulk construction
        # quadratic in the edge count.
        with self._derived_lock:
            existing = self._edges.get(edge.key)
            if existing is not None and existing.weight <= weight:
                return existing
            self._edges[edge.key] = edge
            self._adjacency[left] = {**self._adjacency[left], right: edge}
            self._adjacency[right] = {**self._adjacency[right], left: edge}
            self._invalidate_derived()
        return edge

    def reset_derived_caches(self) -> None:
        """Drop every structure derived from the current topology.

        Called by :meth:`add_edge` on mutation; also used by the perf
        harness to force cold-cache kernel measurements.
        """
        with self._derived_lock:
            self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Bump the revision and drop derived caches (lock held)."""
        self.version += 1
        self.steiner_cache.clear()
        self.plan_cache.clear()
        self._compact = None
        self._sp_cache.clear()

    # -- access --------------------------------------------------------------

    @property
    def nodes(self) -> tuple[ColumnRef, ...]:
        """All attribute nodes (every schema column, even isolated ones)."""
        return tuple(self._adjacency)

    @property
    def edges(self) -> tuple[SchemaEdge, ...]:
        """All edges."""
        return tuple(self._edges.values())

    def __contains__(self, node: ColumnRef) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def neighbors(self, node: ColumnRef) -> Iterator[tuple[ColumnRef, SchemaEdge]]:
        """Iterate ``(neighbour, edge)`` pairs of *node*."""
        try:
            adjacency = self._adjacency[node]
        except KeyError:
            raise SteinerError(f"unknown node: {node}") from None
        return iter(adjacency.items())

    def edge_between(self, left: ColumnRef, right: ColumnRef) -> SchemaEdge | None:
        """The edge joining two nodes, if any."""
        return self._edges.get(frozenset((left, right)))

    # -- derived caches ------------------------------------------------------

    def compact(self) -> CompactGraph:
        """The integer-interned snapshot (rebuilt lazily after mutation).

        Built under the same lock :meth:`add_edge` mutates under, so a
        snapshot always reflects one coherent topology (never a
        mid-mutation state) and a stale build can never be installed
        after an invalidation cleared it.
        """
        snapshot = self._compact
        if snapshot is None:
            with self._derived_lock:
                snapshot = self._compact
                if snapshot is None:
                    snapshot = self._compact = CompactGraph(self)
        return snapshot

    def shortest_paths_from(
        self, source: ColumnRef
    ) -> tuple[dict[ColumnRef, float], dict[ColumnRef, ColumnRef]]:
        """Cached single-source shortest paths (distances, predecessors).

        Identical in content to
        :func:`repro.steiner.exact.shortest_paths` but memoised on the
        graph: the first call per source runs one interned Dijkstra, later
        calls (other terminals of the same configuration, other
        configurations, other queries) are dictionary lookups until
        :meth:`add_edge` invalidates the cache.
        """
        version = self.version
        cached = self._sp_cache.get((source, version))
        if cached is not None:
            return cached
        compact = self.compact()
        try:
            source_index = compact.index[source]
        except KeyError:
            raise SteinerError(f"unknown node: {source}") from None
        raw_distances, raw_predecessors = compact.dijkstra(source_index)
        nodes = compact.nodes
        distances: dict[ColumnRef, float] = {}
        predecessors: dict[ColumnRef, ColumnRef] = {}
        for i, distance in enumerate(raw_distances):
            if distance < float("inf"):
                distances[nodes[i]] = distance
                if raw_predecessors[i] >= 0:
                    predecessors[nodes[i]] = nodes[raw_predecessors[i]]
        result = (distances, predecessors)
        self._sp_cache[(source, version)] = result
        return result

    def prefetch_shortest_paths(self, sources: Sequence[ColumnRef]) -> None:
        """Warm the per-source shortest-path cache in one batched pass.

        One :meth:`CompactGraph.distance_matrix` call over every source at
        once, instead of one Dijkstra per later
        :meth:`shortest_paths_from` call. Rows land in the same per-source
        cache, bit-identical to the scalar path, so this only moves
        *when* the work happens.
        """
        compact = self.compact()
        indices = []
        for source in sources:
            index = compact.index.get(source)
            if index is None:
                raise SteinerError(f"unknown node: {source}")
            indices.append(index)
        if indices:
            compact.distance_matrix(indices)

    def degree(self, node: ColumnRef) -> int:
        """Number of incident edges."""
        return len(self._adjacency[node])

    def connected(self, nodes: set[ColumnRef]) -> bool:
        """Whether all *nodes* lie in one connected component."""
        if not nodes:
            return True
        nodes = set(nodes)
        start = next(iter(nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour, _edge in self.neighbors(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return nodes <= seen

    def __repr__(self) -> str:
        return (
            f"SchemaGraph(nodes={len(self)}, edges={self.edge_count}, "
            f"schema={self.schema.name!r})"
        )
