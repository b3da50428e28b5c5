"""The weighted schema graph the backward step searches.

Per the paper, the graph is built over the database *schema*, not the
instance: one node per attribute, with edges connecting (i) the node of a
table's primary key with every other attribute of the same table and
(ii) the nodes of each primary/foreign key pair. Composite primary keys
contribute one hub node per key column.

The graph is undirected with positive edge weights; nodes are
:class:`~repro.db.schema.ColumnRef` values so trees convert directly into
join paths.

Two derived structures are cached on the graph and dropped whenever
:meth:`SchemaGraph.add_edge` mutates it:

* a :class:`CompactGraph` — an immutable snapshot with nodes interned to
  small integers, array-shaped adjacency (what the top-k Steiner search
  runs on) and a connected-component label per node (what
  :meth:`SchemaGraph.connected` reads);
* the top-k Steiner result cache (``steiner_cache``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cache import LRUCache
from repro.db.schema import ColumnRef, ForeignKey, Schema
from repro.errors import SteinerError
from repro.forksafe import register_lock_holder


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


class CompactGraph:
    """An immutable integer-interned snapshot of a :class:`SchemaGraph`.

    Nodes are interned to ``0..n-1`` in the graph's node order and edges to
    ``0..m-1`` in edge-insertion order, so the Steiner search can carry
    node sets, edge sets and terminal subsets as integer bitmasks and
    index flat lists instead of hashing :class:`~repro.db.schema.ColumnRef`
    values. ``component`` labels each node with its connected component,
    computed once per snapshot in one O(n + m) pass; the snapshot is never
    mutated (:meth:`SchemaGraph.add_edge` discards it), so the labels
    never go stale.

    Obtain instances through :meth:`SchemaGraph.compact`; they are rebuilt
    lazily after graph mutation.
    """

    __slots__ = ("nodes", "index", "neighbors", "edge_list", "component")

    def __init__(self, graph: "SchemaGraph") -> None:
        self.nodes: tuple[ColumnRef, ...] = tuple(graph._adjacency)
        self.index: dict[ColumnRef, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        self.edge_list: tuple[SchemaEdge, ...] = tuple(graph._edges.values())
        edge_index = {edge.key: i for i, edge in enumerate(self.edge_list)}
        #: per node: [(neighbour index, edge weight, edge index), ...]
        #: preserving the adjacency iteration order of the backing graph;
        #: materialise edges through :attr:`edge_list` when needed.
        self.neighbors: list[list[tuple[int, float, int]]] = [
            [
                (self.index[neighbour], edge.weight, edge_index[edge.key])
                for neighbour, edge in adjacency.items()
            ]
            for adjacency in graph._adjacency.values()
        ]
        #: per node: the smallest node index of its connected component.
        self.component: list[int] = _component_labels(self.neighbors)

    def __len__(self) -> int:
        return len(self.nodes)

    def connected(self, nodes: Iterable[ColumnRef]) -> bool:
        """Whether all *nodes* share one component of this snapshot.

        One label lookup per node; raises :class:`SteinerError` for a
        node outside the graph.
        """
        labels = set()
        for node in nodes:
            position = self.index.get(node)
            if position is None:
                raise SteinerError(f"unknown node: {node}")
            labels.add(self.component[position])
        return len(labels) <= 1


def _component_labels(neighbors: list[list[tuple[int, float, int]]]) -> list[int]:
    """Per node index, the smallest node index of its connected component."""
    labels = [-1] * len(neighbors)
    for start in range(len(neighbors)):
        if labels[start] >= 0:
            continue
        labels[start] = start
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour, _weight, _edge_position in neighbors[node]:
                if labels[neighbour] < 0:
                    labels[neighbour] = start
                    stack.append(neighbour)
    return labels


class SchemaGraph:
    """Undirected weighted graph over a schema's attributes."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._adjacency: dict[ColumnRef, dict[ColumnRef, SchemaEdge]] = {}
        self._edges: dict[frozenset, SchemaEdge] = {}
        #: Cross-query cache of top-k Steiner enumerations, keyed by
        #: (frozen terminal set, k, pop cap, search function, revision);
        #: consulted by :func:`repro.steiner.topk.top_k_steiner_trees`.
        self.steiner_cache = LRUCache(STEINER_CACHE_SIZE, label="steiner")
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
        """Drop every structure derived from the current topology, as
        :meth:`add_edge` does on mutation (forces cold caches)."""
        with self._derived_lock:
            self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Bump the revision and drop derived caches (lock held)."""
        self.version += 1
        self.steiner_cache.clear()
        self._compact = None

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

    def degree(self, node: ColumnRef) -> int:
        """Number of incident edges."""
        return len(self._adjacency[node])

    def connected(self, nodes: Iterable[ColumnRef]) -> bool:
        """Whether all *nodes* lie in one connected component.

        Reads the component labels of the current snapshot (see
        :meth:`compact`): O(len(nodes)), no graph traversal.
        """
        return self.compact().connected(nodes)

    def __repr__(self) -> str:
        return (
            f"SchemaGraph(nodes={len(self)}, edges={self.edge_count}, "
            f"schema={self.schema.name!r})"
        )
