"""The database: a schema plus one :class:`~repro.db.table.Table` per relation.

This is the substrate QUEST runs on top of. It enforces referential
integrity on demand, exposes the catalog used during the setup phase and
owns the full-text indexes the forward step queries for emission
probabilities.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.db.schema import ColumnRef, Schema
from repro.db.table import MutationCounter, Row, Table
from repro.errors import IntegrityError, UnknownTableError

__all__ = ["Database"]


class Database:
    """An in-memory relational database instance."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._mutations = MutationCounter()
        self._tables: dict[str, Table] = {
            table.name: Table(table, self._mutations) for table in schema.tables
        }

    # -- access -----------------------------------------------------------

    def table(self, name: str) -> Table:
        """The table instance for *name* (raises :class:`UnknownTableError`)."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    @property
    def tables(self) -> tuple[Table, ...]:
        """All table instances, in schema order."""
        return tuple(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def total_rows(self) -> int:
        """Total number of tuples stored across all tables."""
        return sum(len(table) for table in self._tables.values())

    def row_count(self, name: str) -> int:
        """Number of tuples stored in *name*."""
        return len(self.table(name))

    def table_rows(self, name: str) -> list[Row]:
        """All rows of *name* in insertion order (live list — do not mutate)."""
        return self.table(name).rows

    @property
    def version(self) -> int:
        """Monotonic mutation counter over all tables, read in O(1).

        Every table mutation advances it (see
        :class:`~repro.db.table.MutationCounter`), so at quiescence it
        equals the sum of the table versions. Derived structures (the
        full-text index, storage backends) compare this against the
        version they were built at to detect staleness — the same
        invalidation contract the Steiner cache honours on
        ``SchemaGraph.add_edge``.
        """
        return self._mutations.value

    def column_values(self, ref: ColumnRef) -> list[Any]:
        """All values of the referenced column, in row order."""
        return self.table(ref.table).column_values(ref.column)

    # -- mutation ---------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, Any] | Sequence[Any]) -> Row:
        """Insert one row into *table*."""
        return self.table(table).insert(values)

    def insert_rows(
        self, table: str, rows: Sequence[Mapping[str, Any] | Sequence[Any]]
    ) -> list[Row]:
        """Batch-insert into *table*, validating all rows before any apply."""
        return self.table(table).insert_rows(rows)

    def delete_rows(self, table: str, keys: Sequence[tuple[Any, ...] | Any]) -> int:
        """Tombstone the *table* rows behind *keys*; returns how many existed."""
        return self.table(table).delete_rows(keys)

    # -- integrity --------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify every foreign key resolves to an existing referenced row.

        Checking is deferred (not per-insert) so generators may load tables
        in any order; datasets call this once after loading.
        """
        for fk in self.schema.foreign_keys:
            source = self.table(fk.table)
            target = self.table(fk.ref_table)
            target_values = target.distinct_values(fk.ref_column)
            position = source.column_position(fk.column)
            for row in source:
                value = row[position]
                if value is not None and value not in target_values:
                    raise IntegrityError(
                        f"dangling foreign key {fk}: value {value!r} "
                        f"has no match in {fk.ref_table}.{fk.ref_column}"
                    )

    def __repr__(self) -> str:
        return (
            f"Database({self.schema.name!r}, tables={len(self._tables)}, "
            f"rows={self.total_rows()})"
        )
