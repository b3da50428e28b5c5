"""Configurations: mappings of keywords into database terms.

A configuration is the forward step's output — one database term (HMM
state) per keyword, with a confidence score. Configurations are hashable so
they can serve as Dempster-Shafer hypotheses directly; their hash is
computed once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.schema import ColumnRef, Schema
from repro.hmm.states import State, StateKind

__all__ = ["KeywordMapping", "Configuration"]


@dataclass(frozen=True, slots=True)
class KeywordMapping:
    """One keyword mapped to one database term."""

    keyword: str
    state: State

    def __str__(self) -> str:
        return f"{self.keyword!r} -> {self.state}"


@dataclass(frozen=True, slots=True)
class Configuration:
    """A complete mapping of a keyword query into database terms.

    Slotted (as are :class:`KeywordMapping`, the interpretations and the
    explanations): the forward pool allocates ``k * candidate_factor`` of
    these per query, so per-instance ``__dict__``s are measurable.

    ``score`` is the confidence the producing component attached (List
    Viterbi probability, or a DS pignistic probability after combination).
    It is excluded from identity: two configurations with the same mappings
    are the *same hypothesis* regardless of who scored them, which is what
    lets Dempster's rule intersect evidence from the two operating modes.

    The mapped tables are collected once, at construction, like the
    hash. Identity is computed once: the hash of ``mappings`` is stored at
    construction (like :class:`~repro.db.schema.ColumnRef`'s), carried
    over by :meth:`with_score`, recomputed on unpickle (string hashes are
    salted per process), and lets ``__eq__`` reject unequal hashes before
    comparing mappings.
    """

    mappings: tuple[KeywordMapping, ...]
    score: float = 0.0
    _hash: int = field(init=False, repr=False, compare=False)
    _tables: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.mappings))
        object.__setattr__(
            self, "_tables", frozenset(m.state.table for m in self.mappings)
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._hash == other._hash and self.mappings == other.mappings

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Configuration, (self.mappings, self.score))

    # -- accessors -----------------------------------------------------------

    @property
    def keywords(self) -> tuple[str, ...]:
        """The keywords, in query order."""
        return tuple(m.keyword for m in self.mappings)

    @property
    def states(self) -> tuple[State, ...]:
        """The mapped database terms, in query order."""
        return tuple(m.state for m in self.mappings)

    @property
    def tables(self) -> frozenset[str]:
        """Tables touched by any mapped term."""
        return self._tables

    def domain_mappings(self) -> tuple[KeywordMapping, ...]:
        """Mappings onto attribute domains (these become WHERE predicates)."""
        return tuple(
            m for m in self.mappings if m.state.kind is StateKind.DOMAIN
        )

    def attribute_mappings(self) -> tuple[KeywordMapping, ...]:
        """Mappings onto attribute names (these become projections)."""
        return tuple(
            m for m in self.mappings if m.state.kind is StateKind.ATTRIBUTE
        )

    def table_mappings(self) -> tuple[KeywordMapping, ...]:
        """Mappings onto table names."""
        return tuple(m for m in self.mappings if m.state.kind is StateKind.TABLE)

    def terminals(self, schema: Schema) -> frozenset[ColumnRef]:
        """The schema-graph terminals this configuration pins down.

        ATTRIBUTE and DOMAIN terms contribute their column node; a TABLE
        term contributes the table's primary-key column(s) — the node(s)
        every attribute of that table hangs off in the schema graph.
        """
        terminals: set[ColumnRef] = set()
        for mapping in self.mappings:
            state = mapping.state
            if state.kind is StateKind.TABLE:
                for key_column in schema.table(state.table).primary_key:
                    terminals.add(ColumnRef(state.table, key_column))
            else:
                ref = state.column_ref
                assert ref is not None  # non-TABLE states always carry one
                terminals.add(ref)
        return frozenset(terminals)

    def with_score(self, score: float) -> "Configuration":
        """The same hypothesis re-scored (its stored hash is copied)."""
        clone = object.__new__(Configuration)
        object.__setattr__(clone, "mappings", self.mappings)
        object.__setattr__(clone, "score", score)
        object.__setattr__(clone, "_hash", self._hash)
        object.__setattr__(clone, "_tables", self._tables)
        return clone

    def __str__(self) -> str:
        body = ", ".join(str(m) for m in self.mappings)
        return f"Configuration({body}, score={self.score:.4f})"
