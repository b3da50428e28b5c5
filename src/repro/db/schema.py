"""Relational schema model: columns, tables, keys and foreign keys.

The schema is the central artifact in QUEST — both the forward step (HMM
state space: one state per table, per attribute and per attribute domain)
and the backward step (schema graph: one node per attribute, edges for
primary-key membership and foreign keys) are derived from it, not from the
instance. Schemas are therefore immutable value objects with rich lookup
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.db.types import DataType
from repro.errors import SchemaError, UnknownColumnError, UnknownTableError

__all__ = ["Column", "ForeignKey", "TableSchema", "Schema", "ColumnRef"]


@dataclass(frozen=True)
class ColumnRef:
    """A fully qualified reference to a column, ``table.column``.

    ``ColumnRef``s key every hot dictionary in the engine — schema-graph
    adjacency, shortest-path maps, full-text postings — so the hash of the
    two-string tuple is computed once at construction and cached rather
    than recomputed per lookup. The cached value equals what the generated
    dataclass ``__hash__`` would return. String hashes are salted per
    process, so unpickling rebuilds the object (and its hash) from the two
    names instead of restoring the stored integer.
    """

    table: str
    column: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.table, self.column)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (ColumnRef, (self.table, self.column))

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"

    @staticmethod
    def parse(text: str) -> "ColumnRef":
        """Parse ``"table.column"`` into a :class:`ColumnRef`."""
        table, sep, column = text.partition(".")
        if not sep or not table or not column:
            raise SchemaError(f"malformed column reference: {text!r}")
        return ColumnRef(table, column)


@dataclass(frozen=True)
class Column:
    """A single attribute of a table.

    ``synonyms`` carry schema annotations (alternative human names for the
    attribute) that the semantic matchers use; ``pattern`` optionally holds a
    regular expression of admissible values, which is the only instance-level
    knowledge available for hidden (Deep Web) sources.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    synonyms: tuple[str, ...] = ()
    pattern: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint from ``table.column`` to ``ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str

    @property
    def source(self) -> ColumnRef:
        """The referencing side of the constraint."""
        return ColumnRef(self.table, self.column)

    @property
    def target(self) -> ColumnRef:
        """The referenced side (a primary-key column)."""
        return ColumnRef(self.ref_table, self.ref_column)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}"


@dataclass(frozen=True)
class TableSchema:
    """A table definition: ordered columns plus a primary key.

    ``synonyms`` mirror :attr:`Column.synonyms` at table granularity and are
    consumed by the a-priori HMM parameter builder and the hidden wrapper.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    synonyms: tuple[str, ...] = ()
    description: str = ""
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid table name: {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            by_name[column.name] = column
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        for key_col in self.primary_key:
            if key_col not in by_name:
                raise UnknownColumnError(self.name, key_col)
        object.__setattr__(self, "_by_name", by_name)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`UnknownColumnError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def has_column(self, name: str) -> bool:
        """Whether the table declares a column called *name*."""
        return name in self._by_name

    def is_key_column(self, name: str) -> bool:
        """Whether *name* participates in the primary key."""
        return name in self.primary_key

    def non_key_columns(self) -> tuple[Column, ...]:
        """Columns that are not part of the primary key."""
        return tuple(c for c in self.columns if c.name not in self.primary_key)


class Schema:
    """A relational schema: a set of tables plus foreign-key constraints.

    The object validates referential consistency eagerly so every downstream
    consumer (HMM state builder, Steiner graph builder, SQL generator) can
    assume the constraints are well-formed.
    """

    def __init__(
        self,
        tables: list[TableSchema] | tuple[TableSchema, ...],
        foreign_keys: list[ForeignKey] | tuple[ForeignKey, ...] = (),
        name: str = "schema",
    ) -> None:
        self.name = name
        self._tables: dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table: {table.name!r}")
            self._tables[table.name] = table
        self._foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        seen: set[tuple[str, str, str, str]] = set()
        for fk in self._foreign_keys:
            self._validate_foreign_key(fk)
            signature = (fk.table, fk.column, fk.ref_table, fk.ref_column)
            if signature in seen:
                raise SchemaError(f"duplicate foreign key: {fk}")
            seen.add(signature)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        source_table = self.table(fk.table)
        target_table = self.table(fk.ref_table)
        if not source_table.has_column(fk.column):
            raise UnknownColumnError(fk.table, fk.column)
        if not target_table.has_column(fk.ref_column):
            raise UnknownColumnError(fk.ref_table, fk.ref_column)
        if not target_table.is_key_column(fk.ref_column):
            raise SchemaError(
                f"foreign key {fk} must reference a primary-key column"
            )

    # -- lookup ---------------------------------------------------------

    @property
    def tables(self) -> tuple[TableSchema, ...]:
        """All table definitions, in insertion order."""
        return tuple(self._tables.values())

    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all tables, in insertion order."""
        return tuple(self._tables)

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        """All foreign-key constraints."""
        return self._foreign_keys

    def table(self, name: str) -> TableSchema:
        """Look up a table by name, raising :class:`UnknownTableError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        """Whether the schema declares a table called *name*."""
        return name in self._tables

    def column(self, ref: ColumnRef) -> Column:
        """Resolve a qualified column reference."""
        return self.table(ref.table).column(ref.column)

    def column_refs(self) -> Iterator[ColumnRef]:
        """Iterate every qualified column in the schema."""
        for table in self.tables:
            for column in table.columns:
                yield ColumnRef(table.name, column.name)

    def foreign_keys_of(self, table: str) -> tuple[ForeignKey, ...]:
        """Foreign keys whose referencing side lives in *table*."""
        return tuple(fk for fk in self._foreign_keys if fk.table == table)

    def foreign_keys_into(self, table: str) -> tuple[ForeignKey, ...]:
        """Foreign keys whose referenced side lives in *table*."""
        return tuple(fk for fk in self._foreign_keys if fk.ref_table == table)

    def join_edges(self) -> list[tuple[ColumnRef, ColumnRef]]:
        """All joinable column pairs implied by the foreign keys."""
        return [(fk.source, fk.target) for fk in self._foreign_keys]

    def adjacent_tables(self, table: str) -> set[str]:
        """Tables reachable from *table* through a single foreign key."""
        neighbours: set[str] = set()
        for fk in self._foreign_keys:
            if fk.table == table:
                neighbours.add(fk.ref_table)
            if fk.ref_table == table:
                neighbours.add(fk.table)
        neighbours.discard(table)
        return neighbours

    def tables_are_adjacent(self, left: str, right: str) -> bool:
        """Whether two tables are directly connected by a foreign key."""
        return right in self.adjacent_tables(left)

    # -- misc -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return (
            f"Schema({self.name!r}, tables={len(self._tables)}, "
            f"foreign_keys={len(self._foreign_keys)})"
        )
