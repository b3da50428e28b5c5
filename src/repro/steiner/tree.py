"""Steiner tree values and their conversion to join paths.

A tree over the schema graph *is* a join-path specification: its JOIN-kind
edges name the primary/foreign key pairs to equi-join, and the set of
tables touched by its nodes is the FROM clause. The conversion to a
:class:`~repro.db.query.SelectQuery` happens later in the query builder;
here we keep the structural object plus validation helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.schema import ColumnRef, ForeignKey
from repro.errors import SteinerError
from repro.steiner.graph import EdgeKind, SchemaEdge

__all__ = ["SteinerTree"]


@dataclass(frozen=True, slots=True)
class SteinerTree:
    """An undirected tree connecting a set of terminal attributes.

    Slotted: the backward step materialises one instance per enumerated
    tree per configuration, so the per-instance ``__dict__`` is worth
    dropping on this hot path.

    The node set, its tables and the :meth:`signature` are computed
    once, at construction: trees come out of the cross-query Steiner
    cache and are re-read by every query that reuses them, and the
    signature is half of every interpretation's identity.

    Attributes:
        terminals: the attributes the tree was required to connect.
        edges: the tree edges (may be empty when all terminals coincide).
        weight: total edge weight.
    """

    terminals: frozenset
    edges: frozenset
    weight: float
    _nodes: frozenset = field(init=False, repr=False, compare=False, hash=False)
    _tables: frozenset = field(init=False, repr=False, compare=False, hash=False)
    _signature: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        nodes: set[ColumnRef] = set(self.terminals)
        for edge in self.edges:
            nodes.add(edge.left)
            nodes.add(edge.right)
        object.__setattr__(self, "_nodes", frozenset(nodes))
        object.__setattr__(self, "_tables", frozenset(node.table for node in nodes))
        object.__setattr__(
            self, "_signature", frozenset(edge.key for edge in self.edges)
        )

    # -- structure -----------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        """All attributes touched by the tree (terminals + Steiner points)."""
        return self._nodes

    @property
    def steiner_points(self) -> frozenset:
        """Non-terminal nodes the tree passes through."""
        return self._nodes - self.terminals

    @property
    def tables(self) -> frozenset:
        """Tables the tree's nodes belong to (the FROM clause)."""
        return self._tables

    def join_edges(self) -> tuple[SchemaEdge, ...]:
        """The pk/fk edges (deterministically ordered)."""
        joins = [e for e in self.edges if e.kind == EdgeKind.JOIN]
        return tuple(sorted(joins, key=lambda e: (str(e.left), str(e.right))))

    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        """The foreign keys realised by the tree's join edges."""
        keys = []
        for edge in self.join_edges():
            if edge.foreign_key is None:
                raise SteinerError(f"join edge without foreign key: {edge}")
            keys.append(edge.foreign_key)
        return tuple(keys)

    def signature(self) -> frozenset:
        """Order-insensitive identity: the set of edge keys.

        Computed once at construction; ``frozenset`` caches its own hash,
        so hashing the returned value again is free.
        """
        return self._signature

    # -- validation -----------------------------------------------------------

    def is_valid_tree(self) -> bool:
        """Whether edges form a connected acyclic graph spanning terminals."""
        if not self.edges:
            return len({node.table for node in self.terminals}) <= 1
        adjacency: dict[ColumnRef, list[ColumnRef]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.left, []).append(edge.right)
            adjacency.setdefault(edge.right, []).append(edge.left)
        vertices = set(adjacency)
        if len(self.edges) != len(vertices) - 1:
            return False  # a connected graph with |V|-1 edges is a tree
        start = next(iter(vertices))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if seen != vertices:
            return False
        return all(t in vertices for t in self.terminals if self.edges)

    def contains_tree(self, other: "SteinerTree") -> bool:
        """Whether *other*'s edges are a subset of this tree's edges."""
        return other.signature() <= self.signature()

    def __lt__(self, other: "SteinerTree") -> bool:
        return (self.weight, sorted(map(str, self._nodes))) < (
            other.weight,
            sorted(map(str, other._nodes)),
        )

    def __str__(self) -> str:
        edges = ", ".join(str(e) for e in sorted(self.edges, key=str))
        return f"SteinerTree(weight={self.weight:.3f}, edges=[{edges}])"
