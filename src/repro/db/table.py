"""In-memory table storage with primary-key and secondary indexes.

Rows are stored as tuples in declaration order; the table maintains a
unique index on the primary key and builds per-column hash indexes on
demand for the join executor, then keeps them current on every insert and
delete. The representation favours clarity over raw speed but still keeps
point lookups and equi-join probes O(1).

Readers may build an index while a writer mutates the table: the build
and every mutation of rows plus indexes hold the table's index lock, so a
freshly published index never misses an appended row nor keeps a
tombstoned one. Lookups into a built index take no lock.

Deletes are *tombstones*: the physical row list is append-only forever,
so a row's position — the coordinate every full-text posting and sealed
columnar snapshot speaks in — stays valid across any mutation history.
``rows`` serves the live view (tombstones filtered); ``storage_rows``
serves the physical list for positional consumers (the full-text
refresher, the persisted artifact's row counts, position-addressed
baselines).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.db.schema import TableSchema
from repro.db.types import coerce
from repro.errors import IntegrityError, UnknownColumnError
from repro.forksafe import register_lock_holder

__all__ = ["MutationCounter", "Table", "Row", "normalise_key", "normalise_row", "prepare_rows"]

#: A materialised row: values in column-declaration order.
Row = tuple[Any, ...]


def normalise_row(
    schema: TableSchema, values: Mapping[str, Any] | Sequence[Any]
) -> Row:
    """Coerce a mapping or positional sequence into a typed row tuple.

    Values are coerced to the declared column types and NOT NULL is
    enforced. Shared by every storage backend so row-validation
    semantics cannot drift between engines.
    """
    columns = schema.columns
    if isinstance(values, Mapping):
        unknown = set(values) - {column.name for column in columns}
        if unknown:
            raise UnknownColumnError(schema.name, sorted(unknown)[0])
        raw = [values.get(column.name) for column in columns]
    else:
        if len(values) != len(columns):
            raise IntegrityError(
                f"{schema.name}: expected {len(columns)} values, "
                f"got {len(values)}"
            )
        raw = list(values)
    row = []
    for column, value in zip(columns, raw):
        coerced = coerce(value, column.dtype)
        if coerced is None and not column.nullable:
            raise IntegrityError(f"{schema.name}.{column.name}: NULL not allowed")
        row.append(coerced)
    return tuple(row)


def prepare_rows(
    schema: TableSchema,
    rows: Sequence[Mapping[str, Any] | Sequence[Any]],
    stored: Callable[[tuple[Any, ...]], bool],
) -> list[Row]:
    """Validate a batch without applying it (the journal's first half).

    Normalises every row and enforces a non-NULL primary key that is
    unique against the batch itself and against the store, which
    *stored* asks about one key at a time. The returned rows are
    guaranteed to apply cleanly — nothing between validation and apply
    can make the batch fail, so a journal may record the batch first.
    Shared by :meth:`Table.insert_rows` and every storage backend's
    ``add_rows``, so batch validation cannot drift between stores.
    """
    names = schema.column_names
    pk_positions = [names.index(name) for name in schema.primary_key]
    normalised: list[Row] = []
    seen: set[tuple[Any, ...]] = set()
    for values in rows:
        row = normalise_row(schema, values)
        key = tuple(row[p] for p in pk_positions)
        if any(part is None for part in key):
            raise IntegrityError(f"{schema.name}: primary key may not be NULL")
        if key in seen or stored(key):
            raise IntegrityError(f"{schema.name}: duplicate primary key {key!r}")
        seen.add(key)
        normalised.append(row)
    return normalised


def normalise_key(schema: TableSchema, key: tuple[Any, ...] | Any) -> tuple[Any, ...]:
    """Coerce *key* to the primary key's declared column types.

    Scalar keys may be passed bare. Journaled keys round-trip through
    JSON (tuples become lists, dates become ISO strings); coercing them
    back here makes replay compare keys bit-identically.
    """
    if not isinstance(key, tuple):
        key = tuple(key) if isinstance(key, list) else (key,)
    primary = schema.primary_key
    if len(key) != len(primary):
        raise IntegrityError(
            f"{schema.name}: primary key takes {len(primary)} values, "
            f"got {len(key)}"
        )
    return tuple(
        coerce(part, schema.column(name).dtype) for part, name in zip(key, primary)
    )


def _reset_index_lock(table: "Table") -> None:
    table._index_lock = threading.Lock()


def _reset_counter_lock(counter: "MutationCounter") -> None:
    counter._lock = threading.Lock()


class MutationCounter:
    """The running total of mutations over the tables that share it.

    A :class:`~repro.db.database.Database` hands one counter to all of its
    tables, and every table version bump advances it by the same amount,
    so reading the database version is O(1) and, once writers are
    quiescent, equals the sum of the table versions. Tables are written
    under their own index locks, so the counter takes a lock of its own:
    writers on different tables never lose an increment. A table advances
    it only after the mutation is in place, so a reader that sees the new
    value also sees the rows behind it.
    """

    __slots__ = ("value", "_lock", "__weakref__")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()
        register_lock_holder(self, _reset_counter_lock)

    def advance(self, count: int) -> None:
        """Add *count* mutations to the total."""
        with self._lock:
            self.value += count


class Table:
    """A mutable relation instance conforming to a :class:`TableSchema`."""

    def __init__(
        self, schema: TableSchema, counter: MutationCounter | None = None
    ) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        #: Monotonic mutation counter; derived structures (full-text
        #: indexes, backends) compare it to detect staleness.
        self.version = 0
        #: The owning database's running total, advanced with ``version``.
        self._counter = counter if counter is not None else MutationCounter()
        self._col_index: dict[str, int] = {
            column.name: position for position, column in enumerate(schema.columns)
        }
        self._pk_positions: tuple[int, ...] = tuple(
            self._col_index[name] for name in schema.primary_key
        )
        self._pk_index: dict[tuple[Any, ...], int] = {}
        self._secondary: dict[str, dict[Any, list[int]]] = {}
        #: Tombstoned physical positions (never reused, never renumbered).
        self._deleted: set[int] = set()
        #: Append-only history of tombstoned positions, in deletion
        #: order — the full-text refresher consumes its tail to unindex
        #: exactly the rows deleted since its last pass.
        self._deletion_log: list[int] = []
        self._live_cache: tuple[int, list[Row]] | None = None
        #: Serialises index builds against row mutation (module docstring);
        #: forked children get a fresh lock (see repro.forksafe).
        self._index_lock = threading.Lock()
        register_lock_holder(self, _reset_index_lock)

    # -- schema helpers ---------------------------------------------------

    @property
    def name(self) -> str:
        """The table name, as declared in the schema."""
        return self.schema.name

    def column_position(self, column: str) -> int:
        """Index of *column* within stored row tuples."""
        try:
            return self._col_index[column]
        except KeyError:
            raise UnknownColumnError(self.name, column) from None

    # -- mutation ---------------------------------------------------------

    def insert(self, values: Mapping[str, Any] | Sequence[Any]) -> Row:
        """Insert one row, given as a mapping or a positional sequence.

        Values are coerced to the declared column types; NOT NULL and
        primary-key uniqueness are enforced. Returns the stored row tuple.
        The dataset generators call this once per row, so it keeps its
        own one-row body instead of wrapping :meth:`insert_rows`.
        """
        row = normalise_row(self.schema, values)
        key = tuple(row[p] for p in self._pk_positions)
        if any(part is None for part in key):
            raise IntegrityError(f"{self.name}: primary key may not be NULL")
        if key in self._pk_index:
            raise IntegrityError(f"{self.name}: duplicate primary key {key!r}")
        with self._index_lock:
            position = len(self._rows)
            self._rows.append(row)
            self._pk_index[key] = position
            self.version += 1
            for column, index in self._secondary.items():
                index[row[self._col_index[column]]].append(position)
            self._counter.advance(1)
        return row

    def insert_rows(
        self, rows: Sequence[Mapping[str, Any] | Sequence[Any]]
    ) -> list[Row]:
        """Insert a batch, validating *every* row before applying any.

        The all-then-apply split is what the write-ahead journal leans
        on: once a batch validates, applying it cannot fail, so the
        journal may durably record the mutation before a single row
        lands — an acknowledged batch is always replayable in full.
        """
        normalised = prepare_rows(self.schema, rows, self._pk_index.__contains__)
        self.apply_prepared(normalised)
        return normalised

    def apply_prepared(self, normalised: Sequence[Row]) -> None:
        """Apply rows previously validated by :func:`prepare_rows`."""
        with self._index_lock:
            for row in normalised:
                key = tuple(row[p] for p in self._pk_positions)
                position = len(self._rows)
                self._rows.append(row)
                self._pk_index[key] = position
                self.version += 1
                for column, index in self._secondary.items():
                    index[row[self._col_index[column]]].append(position)
            self._counter.advance(len(normalised))

    def delete_rows(self, keys: Sequence[tuple[Any, ...] | Any]) -> int:
        """Tombstone the rows behind *keys*; returns how many existed.

        Physical positions are never reclaimed or renumbered — the row
        tuple stays readable (so index maintenance can re-tokenise it)
        but disappears from every live view, lookup and secondary index.
        Absent keys are skipped, which makes replaying a journaled
        delete idempotent.
        """
        deleted = 0
        normalised = [normalise_key(self.schema, key) for key in keys]
        with self._index_lock:
            for key in normalised:
                position = self._pk_index.pop(key, None)
                if position is None:
                    continue
                self._deleted.add(position)
                self._deletion_log.append(position)
                self.version += 1
                deleted += 1
                row = self._rows[position]
                for column, index in self._secondary.items():
                    postings = index.get(row[self._col_index[column]])
                    if postings is not None:
                        postings.remove(position)
            self._counter.advance(deleted)
        return deleted

    # -- access -----------------------------------------------------------

    @property
    def rows(self) -> list[Row]:
        """All *live* rows in insertion order (do not mutate).

        With no deletions this is the physical list itself (zero-copy,
        the overwhelmingly common case); once tombstones exist it is a
        filtered copy cached per mutation version.
        """
        if not self._deleted:
            return self._rows
        version = self.version
        cached = self._live_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        # Stamped with the version read before the scan: a write racing
        # the scan leaves a stamp that the next read no longer matches.
        live = [
            row
            for position, row in enumerate(self._rows)
            if position not in self._deleted
        ]
        self._live_cache = (version, live)
        return live

    @property
    def storage_rows(self) -> list[Row]:
        """The physical row list, tombstones included (do not mutate).

        Positional consumers — the full-text refresher, artifact row
        counts, baselines addressing rows by posting position — must
        read this, never :attr:`rows`.
        """
        return self._rows

    @property
    def physical_count(self) -> int:
        """Physical rows ever inserted (tombstones included)."""
        return len(self._rows)

    @property
    def deleted_count(self) -> int:
        """How many rows have been tombstoned."""
        return len(self._deleted)

    @property
    def deletion_log(self) -> list[int]:
        """Tombstoned positions in deletion order (do not mutate)."""
        return self._deletion_log

    def is_deleted(self, position: int) -> bool:
        """Whether physical *position* is tombstoned."""
        return position in self._deleted

    def __len__(self) -> int:
        return len(self._rows) - len(self._deleted)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def get(self, key: tuple[Any, ...] | Any) -> Row | None:
        """Point lookup by primary key; scalar keys may be passed bare."""
        if not isinstance(key, tuple):
            key = (key,)
        position = self._pk_index.get(key)
        return None if position is None else self._rows[position]

    def column_values(self, column: str) -> list[Any]:
        """All live values of *column*, in row order (including NULLs)."""
        position = self.column_position(column)
        return [row[position] for row in self.rows]

    def distinct_values(self, column: str) -> set[Any]:
        """Distinct non-NULL live values of *column*."""
        position = self.column_position(column)
        return {row[position] for row in self.rows if row[position] is not None}

    # -- indexing ---------------------------------------------------------

    def ensure_index(self, column: str) -> dict[Any, list[int]]:
        """Build (or fetch) a hash index on *column* for equi-join probes.

        The index maps each value (NULL included) to the live positions
        holding it, in insertion order, and stays current across every
        later insert and delete. Do not mutate it.
        """
        index = self._secondary.get(column)
        if index is None:
            position = self.column_position(column)
            with self._index_lock:
                index = self._secondary.get(column)
                if index is None:
                    index = defaultdict(list)
                    for row_position, row in enumerate(self._rows):
                        if row_position not in self._deleted:
                            index[row[position]].append(row_position)
                    self._secondary[column] = index
        return index

    def lookup(self, column: str, value: Any) -> list[Row]:
        """All rows whose *column* equals *value* (index-accelerated)."""
        index = self.ensure_index(column)
        return [self._rows[p] for p in index.get(value, ())]

    def __repr__(self) -> str:
        detail = f"Table({self.name!r}, rows={len(self)}"
        if self._deleted:
            detail += f", deleted={len(self._deleted)}"
        return detail + ")"
