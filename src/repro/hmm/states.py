"""The HMM state space: one state per database term.

The forward step models keyword-to-schema mapping as a hidden process whose
states are *database terms*: for every table there is a TABLE state (the
keyword names the table), for every attribute an ATTRIBUTE state (the
keyword names the column) and a DOMAIN state (the keyword is a *value* of
that column). A decoded state sequence is exactly a configuration: an
assignment of every keyword to a database term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.db.schema import ColumnRef, Schema

__all__ = ["StateKind", "State", "StateSpace", "StatesKey"]


class StateKind(enum.Enum):
    """What a keyword mapped to this state refers to."""

    TABLE = "table"  # the table name itself ("movies")
    ATTRIBUTE = "attribute"  # a column name ("title")
    DOMAIN = "domain"  # a value of a column ("kubrick" in person.name)

    @property
    def is_schema_term(self) -> bool:
        """Whether the state names schema vocabulary rather than data."""
        return self is not StateKind.DOMAIN


@dataclass(frozen=True)
class State:
    """One database term: a table, an attribute, or an attribute domain.

    States key the configurations' mappings and the state space's index,
    so the hash is computed once at construction, like ``ColumnRef``'s,
    and so is :attr:`column_ref`. String hashes are salted per process:
    unpickling rebuilds the state through the constructor.
    """

    kind: StateKind
    table: str
    column: str | None = None
    #: Qualified column for ATTRIBUTE/DOMAIN states, ``None`` for TABLE.
    column_ref: ColumnRef | None = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is StateKind.TABLE and self.column is not None:
            raise ValueError("TABLE states carry no column")
        if self.kind is not StateKind.TABLE and self.column is None:
            raise ValueError(f"{self.kind.value} states need a column")
        ref = None if self.column is None else ColumnRef(self.table, self.column)
        object.__setattr__(self, "column_ref", ref)
        object.__setattr__(self, "_hash", hash((self.kind, self.table, self.column)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (State, (self.kind, self.table, self.column))

    def __str__(self) -> str:
        if self.kind is StateKind.TABLE:
            return f"table:{self.table}"
        return f"{self.kind.value}:{self.table}.{self.column}"


@dataclass(frozen=True)
class StatesKey:
    """A state tuple as a cache-key part, hashed once.

    Equal to another key exactly when the tuples are equal, content and
    order both, so a same-length space in another order never shares an
    entry. A tuple does not cache its hash, and a cache lookup hashes
    its key more than once (``LRUCache.get`` probes and then reorders),
    so keying on the bare tuple rehashes every state per lookup. Like
    :class:`State`, unpickling rebuilds the hash through the constructor.
    """

    states: tuple[State, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.states))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (StatesKey, (self.states,))


class StateSpace:
    """The ordered set of states derived from a schema.

    Order is deterministic (schema declaration order) so state indexes are
    stable across runs — transition matrices, training checkpoints and test
    expectations all rely on that.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        states: list[State] = []
        for table in schema.tables:
            states.append(State(StateKind.TABLE, table.name))
            for column in table.columns:
                states.append(State(StateKind.ATTRIBUTE, table.name, column.name))
                states.append(State(StateKind.DOMAIN, table.name, column.name))
        self._states: tuple[State, ...] = tuple(states)
        self._index: dict[State, int] = {
            state: position for position, state in enumerate(states)
        }
        #: The states as one cache-key part (see :class:`StatesKey`).
        self.key = StatesKey(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states)

    def __getitem__(self, position: int) -> State:
        return self._states[position]

    def index(self, state: State) -> int:
        """Position of *state* in the space (raises ``KeyError`` if absent)."""
        return self._index[state]

    def __contains__(self, state: State) -> bool:
        return state in self._index

    @property
    def states(self) -> tuple[State, ...]:
        """All states in canonical order."""
        return self._states

    def states_of_table(self, table: str) -> list[State]:
        """All states whose term belongs to *table*."""
        return [state for state in self._states if state.table == table]

    def domain_states(self) -> list[State]:
        """All DOMAIN states."""
        return [s for s in self._states if s.kind is StateKind.DOMAIN]

    def table_state(self, table: str) -> State:
        """The TABLE state of *table*."""
        return self._states[self._index[State(StateKind.TABLE, table)]]

    def attribute_state(self, table: str, column: str) -> State:
        """The ATTRIBUTE state of ``table.column``."""
        return self._states[self._index[State(StateKind.ATTRIBUTE, table, column)]]

    def domain_state(self, table: str, column: str) -> State:
        """The DOMAIN state of ``table.column``."""
        return self._states[self._index[State(StateKind.DOMAIN, table, column)]]

    def __repr__(self) -> str:
        return f"StateSpace(schema={self.schema.name!r}, states={len(self)})"
