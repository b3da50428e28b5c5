"""CSV import/export for database instances.

Examples and tests persist small instances as one CSV file per table inside
a directory; the loader validates against the declared schema and runs the
deferred integrity check.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.db.database import Database
from repro.db.schema import Schema
from repro.errors import SchemaError

__all__ = ["dump_database", "load_database"]


def dump_database(db: Database, directory: str | Path) -> list[Path]:
    """Write one ``<table>.csv`` per table into *directory*.

    Returns the written paths. NULLs are serialised as empty strings, which
    the type coercion layer maps back to ``None`` on load.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for table in db.tables:
        path = target / f"{table.name}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.column_names)
            for row in table:
                writer.writerow(["" if v is None else v for v in row])
        written.append(path)
    return written


def load_database(schema: Schema, directory: str | Path) -> Database:
    """Load a database instance from per-table CSV files.

    Every schema table must have a matching file; headers must list exactly
    the declared columns (any order). Referential integrity is verified
    after all tables are loaded.
    """
    source = Path(directory)
    db = Database(schema)
    for table_schema in schema.tables:
        path = source / f"{table_schema.name}.csv"
        if not path.exists():
            raise SchemaError(f"missing CSV file for table: {table_schema.name!r}")
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"empty CSV file: {path}") from None
            if set(header) != set(table_schema.column_names):
                raise SchemaError(
                    f"CSV header mismatch for {table_schema.name!r}: "
                    f"expected {sorted(table_schema.column_names)}, "
                    f"got {sorted(header)}"
                )
            rows = [dict(zip(header, row)) for row in reader]
            db.insert_rows(table_schema.name, rows)
    db.check_integrity()
    return db
