"""SQLite storage backend: persistent relations, SQL execution, FTS scoring.

Relations live in a SQLite database (a file or ``:memory:``); generated
:class:`~repro.db.query.SelectQuery` plans are rendered to SQLite SQL by
:func:`repro.db.sqlgen.render_sql` and executed by SQLite itself — joins,
DISTINCT, LIMIT and result counting all happen engine-side. Emission
scoring is served from an inverted index stored *in* SQLite:

- ``_quest_postings(term, tbl, col, pos, tf)`` — the per-attribute
  posting lists, built with the exact tokenisation of
  :func:`repro.db.fulltext.tokenize_value`;
- ``_quest_fields(tbl, col, indexed, tokens)`` — per-attribute document
  counts (the TF normaliser);
- ``_quest_fts`` — an FTS5 mirror of the token streams, used to
  accelerate keyword-to-row retrieval when SQLite is compiled with FTS5
  (the backend degrades to the posting table transparently when not).

Scores are computed from SQL-aggregated integer counts with the same
float arithmetic as :class:`~repro.db.fulltext.FullTextIndex`, so they
are **bit-identical** to the memory backend's — which is what keeps
rankings independent of the storage engine. FTS5's own BM25 ranking is
deliberately not used: it would break that parity guarantee.

Predicate semantics are shared too: the backend registers the executor's
``contains_match``/``like_match`` as the ``QUEST_CONTAINS``/``QUEST_LIKE``
SQL functions, so CONTAINS/LIKE mean the same thing in both engines by
construction. Known deliberate divergences from the in-memory executor:
result *row order* is unspecified (SQL semantics) — counts and row sets
match for fully-consumed queries, but under a LIMIT that truncates, each
backend keeps its own (deterministic) subset; and type-mismatched
comparison predicates are rejected eagerly for the whole query rather
than lazily per evaluated row (the engine itself only generates CONTAINS
predicates, so neither divergence is reachable through a search).

CONTAINS is index-driven: each predicate is preceded by one
``_quest_pos IN (posting list)`` conjunct per keyword token, and every
relation indexes ``_quest_pos`` and its foreign-key columns, so SQLite
seeks the posting rows and joins outward instead of calling
``QUEST_CONTAINS`` on every row. The postings are maintained in the same
transaction as every write through the backend; rows written into the
file behind its back need :meth:`SQLiteBackend.refresh` before CONTAINS
(like scoring) sees them. Writes are batched: a bulk load, an
``add_rows`` batch or a single insert stores its rows, posting rows, FTS
documents and field counters with one ``executemany`` per statement.
"""

from __future__ import annotations

import math
import os
from collections import Counter
import re
import sqlite3
import threading
from dataclasses import replace
from datetime import date
from typing import Any, Iterable, Mapping, Sequence

from repro.db.database import Database
from repro.db.executor import ResultSet, contains_match, like_match
from repro.db.fulltext import tokenize_value
from repro.db.query import Comparison, SelectQuery
from repro.db.schema import ColumnRef, Schema, TableSchema
from repro.forksafe import register_lock_holder
from repro.db.sqlgen import quote_identifier, render_literal, render_sql
from repro.db.table import Row, normalise_row
from repro.db.types import DataType, coerce
from repro.errors import ExecutionError, IntegrityError, UnknownTableError
from repro import faults
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.storage.base import StorageBackend

__all__ = ["SQLiteBackend"]

#: SQLite storage type per logical column type. BOOLEAN stores 0/1 and
#: DATE stores ISO-8601 text (lexicographic order == chronological order),
#: so native comparison operators behave like the in-memory executor's.
_SQLITE_TYPES: dict[DataType, str] = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.DATE: "TEXT",
}

#: Python value types that compare against a column without a TypeError
#: in the in-memory executor; anything else is a type mismatch.
_COMPARABLE: dict[DataType, tuple[type, ...]] = {
    DataType.INTEGER: (bool, int, float),
    DataType.FLOAT: (bool, int, float),
    DataType.TEXT: (str,),
    DataType.BOOLEAN: (bool, int, float),
    DataType.DATE: (date,),
}

_FTS_TERM_RE = re.compile(r"[a-z0-9]+$")

_POSITION_COLUMN = "_quest_pos"

#: How long a connection waits on a writer's lock before giving up.
#: Multi-process serving (preforked workers over one database file) makes
#: brief lock collisions routine; failing them instantly with "database
#: is locked" would shed healthy requests.
_BUSY_TIMEOUT_MS = 5_000


def _encode(value: Any) -> Any:
    """A Python value as stored in SQLite (bool -> int, date -> ISO text)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, date):
        return value.isoformat()
    return value


def _reset_sqlite_lock(backend: "SQLiteBackend") -> None:
    backend._lock = threading.RLock()
    # The breaker registers its own lock holder (see resilience.breaker),
    # so its lock is reset independently of ours.


class SQLiteBackend(StorageBackend):
    """Relations persisted to SQLite; search and execution pushed down."""

    name = "sqlite"

    def __init__(
        self,
        schema: Schema,
        path: str = ":memory:",
        initialize: bool = True,
        breaker: CircuitBreaker | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(schema)
        self.path = str(path)
        #: Records the outcome of every read-path SQL call; its state
        #: feeds the service's degraded-mode reporting. It refuses
        #: nothing: reads keep executing (with bounded retry) while it
        #: is open, and their successes drive half-open recovery.
        self.breaker = breaker or CircuitBreaker(f"sqlite:{path}")
        #: Bounded jittered-exponential retry for transient
        #: OperationalError (busy/locked under WAL writer contention).
        self._retry = retry or RetryPolicy()
        # One connection guarded by a lock: the threaded multi-source tier
        # may execute queries from worker threads. Forked children get a
        # fresh lock (see repro.forksafe) — and a fresh connection too,
        # via the existing per-pid reconnect in _connection().
        self._lock = threading.RLock()
        register_lock_holder(self, _reset_sqlite_lock)
        self._conn = self._connect()
        self._pid = os.getpid()
        #: next insertion position per table (mirrors memory row positions)
        self._positions: dict[str, int] = {}
        #: bumped on every successful mutation (see StorageBackend.version)
        self._version = 0
        #: per-attribute indexed-document counts (the TF normaliser),
        #: mirrored in memory so scoring needs one SQL query, not three.
        self._field_sizes: dict[ColumnRef, int] = {
            ColumnRef(table.name, column.name): 0
            for table in schema.tables
            for column in table.columns
        }
        self._n_fields = len(self._field_sizes)
        if initialize:
            self._create_tables()
            self._fts_enabled = self._create_fts()
            self._has_meta = True
            for table in schema.tables:
                self._positions[table.name] = 0
        else:
            self._fts_enabled = self._table_exists("_quest_fts")
            self._has_meta = self._table_exists("_quest_meta")
            self._load_state()
        # On open, a file built before these indexes existed gains them
        # here, once; CONTAINS narrowing is exact without them, just slower.
        self._create_indexes()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, check_same_thread=False)
        connection.isolation_level = None  # autocommit; we batch manually
        # Multi-process read posture (file-backed stores only — a
        # ``:memory:`` database is private to this process and supports
        # neither WAL nor cross-process contention):
        # - WAL lets N serving workers read while a writer commits, with
        #   none of rollback journal's writer-starves-readers locking;
        # - synchronous=NORMAL is WAL's recommended durability point
        #   (fsync on checkpoint, not on every commit);
        # - busy_timeout absorbs brief lock collisions instead of
        #   surfacing "database is locked" to a healthy request.
        if self.path != ":memory:":
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        connection.create_function(
            "QUEST_CONTAINS", 2, self._contains_udf, deterministic=True
        )
        connection.create_function(
            "QUEST_LIKE", 2, self._like_udf, deterministic=True
        )
        return connection

    @property
    def _connection(self) -> sqlite3.Connection:
        """The live connection, reopened after a fork for file-backed stores.

        SQLite forbids carrying a connection across ``fork()`` — workers
        of the preforked serving tier would otherwise share the parent's open file description (and its
        POSIX locks, which fork silently drops). The guard is keyed on
        pid: the first statement a forked child runs opens its own
        connection, which re-applies the WAL/busy_timeout pragmas.
        ``:memory:`` databases are exempt: fork copies the whole
        in-process store, so the child's connection is private (and
        reconnecting would open an empty database).
        """
        if self._pid != os.getpid() and self.path != ":memory:":
            self._conn = self._connect()
            self._pid = os.getpid()
        return self._conn

    # -- construction ------------------------------------------------------

    @classmethod
    def from_database(
        cls, database: Database, path: str = ":memory:", **kwargs: Any
    ) -> "SQLiteBackend":
        """A fresh backend loaded with the contents of *database*."""
        backend = cls(database.schema, path=path, **kwargs)
        backend._bulk_load(database)
        return backend

    @classmethod
    def open(cls, schema: Schema, path: str) -> "SQLiteBackend":
        """Attach to an existing SQLite file previously built for *schema*."""
        return cls(schema, path=path, initialize=False)

    # -- DDL and state -----------------------------------------------------

    def _create_tables(self) -> None:
        cursor = self._connection.cursor()
        cursor.execute("BEGIN")
        for table in self.schema.tables:
            cursor.execute(f"DROP TABLE IF EXISTS {quote_identifier(table.name)}")
            cursor.execute(self._create_table_sql(table))
        for name in ("_quest_postings", "_quest_fields", "_quest_meta"):
            cursor.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
        cursor.execute(
            'CREATE TABLE "_quest_postings" ('
            "term TEXT NOT NULL, tbl TEXT NOT NULL, col TEXT NOT NULL, "
            "pos INTEGER NOT NULL, tf INTEGER NOT NULL, "
            "PRIMARY KEY (term, tbl, col, pos))"
        )
        cursor.execute(
            'CREATE TABLE "_quest_fields" ('
            "tbl TEXT NOT NULL, col TEXT NOT NULL, "
            "indexed INTEGER NOT NULL, tokens INTEGER NOT NULL, "
            "PRIMARY KEY (tbl, col))"
        )
        cursor.executemany(
            'INSERT INTO "_quest_fields" (tbl, col, indexed, tokens) VALUES (?, ?, 0, 0)',
            [(ref.table, ref.column) for ref in self._field_sizes],
        )
        # Durable backend state; holds the applied journal sequence
        # number, updated in the same transaction as each batched
        # mutation so replay after a crash resumes at exactly the right
        # record (never re-applying, never skipping).
        cursor.execute(
            'CREATE TABLE "_quest_meta" ('
            "key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
        )
        cursor.execute(
            'INSERT INTO "_quest_meta" (key, value) VALUES (?, 0)',
            ("applied_seq",),
        )
        cursor.execute("COMMIT")

    def _create_table_sql(self, table: TableSchema) -> str:
        parts = []
        for column in table.columns:
            null = "" if column.nullable else " NOT NULL"
            parts.append(
                f"{quote_identifier(column.name)} {_SQLITE_TYPES[column.dtype]}{null}"
            )
        # An explicit position column (not rowid): an INTEGER PRIMARY KEY
        # would alias rowid to the key value, losing insertion order.
        parts.append(f"{quote_identifier(_POSITION_COLUMN)} INTEGER NOT NULL")
        keys = ", ".join(quote_identifier(name) for name in table.primary_key)
        parts.append(f"UNIQUE ({keys})")
        return f"CREATE TABLE {quote_identifier(table.name)} ({', '.join(parts)})"

    def _create_indexes(self) -> None:
        """Index ``_quest_pos`` and the foreign-key columns of every relation.

        ``_quest_pos`` lets a CONTAINS predicate's posting-list conjuncts
        (see :meth:`_narrow_contains`) seek rows instead of scanning the
        relation; the foreign-key indexes let the joins that follow seek
        too. A column leading the primary key is skipped: its ``UNIQUE``
        constraint already indexes it. Created with the (empty) relations
        and maintained by SQLite from then on — measured no slower than
        building them after a bulk load; ``IF NOT EXISTS`` makes this a
        no-op on a file that has them.
        """
        columns = {(table.name, _POSITION_COLUMN) for table in self.schema.tables}
        for fk in self.schema.foreign_keys:
            columns.add((fk.table, fk.column))
            columns.add((fk.ref_table, fk.ref_column))
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                for table, column in sorted(columns):
                    if self.schema.table(table).primary_key[0] == column:
                        continue
                    name = quote_identifier(f"_quest_idx_{table}_{column}")
                    cursor.execute(
                        f"CREATE INDEX IF NOT EXISTS {name} "
                        f"ON {quote_identifier(table)} ({quote_identifier(column)})"
                    )
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                raise

    def _create_fts(self) -> bool:
        try:
            self._connection.execute('DROP TABLE IF EXISTS "_quest_fts"')
            self._connection.execute(
                'CREATE VIRTUAL TABLE "_quest_fts" USING fts5('
                "tbl UNINDEXED, col UNINDEXED, pos UNINDEXED, doc)"
            )
        except sqlite3.OperationalError:
            return False
        return True

    def _table_exists(self, name: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM sqlite_master WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    def _load_state(self) -> None:
        """Rehydrate counters from an existing file (``open`` path)."""
        for table in self.schema.tables:
            if not self._table_exists(table.name):
                raise UnknownTableError(table.name)
        self._reload_counters()
        if self._has_meta:
            row = self._connection.execute(
                'SELECT value FROM "_quest_meta" WHERE key = ?',
                ("applied_seq",),
            ).fetchone()
            if row is not None:
                self._applied_seq = int(row[0])

    def _bulk_load(self, database: Database) -> None:
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                for table in database.tables:
                    self._insert_rows(cursor, table.schema, table.rows)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1

    # -- UDFs --------------------------------------------------------------

    @staticmethod
    def _contains_udf(value: Any, keyword: Any) -> int:
        return 1 if contains_match(value, keyword) else 0

    @staticmethod
    def _like_udf(value: Any, pattern: Any) -> int:
        return 1 if like_match(value, pattern) else 0

    # -- mutation ----------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    def insert(self, table: str, values: Mapping[str, Any] | Sequence[Any]) -> Row:
        table_schema = self._table_schema(table)
        row = self._normalise(table_schema, values)
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                self._insert_rows(cursor, table_schema, [row])
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1
        return row

    # insert_many: the base class loops ``insert`` row by row, matching
    # the memory backend's semantics exactly — a mid-batch failure keeps
    # every row inserted before it. (``from_database`` bulk-loads in one
    # transaction instead; a failure there discards the whole backend.)

    def _table_schema(self, table: str) -> TableSchema:
        try:
            return self.schema.table(table)
        except Exception:
            raise UnknownTableError(table) from None

    def _normalise(
        self, table: TableSchema, values: Mapping[str, Any] | Sequence[Any]
    ) -> Row:
        """Coerce and validate one row (same contract as ``Table.insert``)."""
        row = normalise_row(table, values)
        by_name = dict(zip((column.name for column in table.columns), row))
        if any(by_name[name] is None for name in table.primary_key):
            raise IntegrityError(f"{table.name}: primary key may not be NULL")
        return row

    def _reload_counters(self) -> None:
        """Restore the in-memory mirrors from SQL after a rollback.

        ``_insert_rows`` advances ``_positions``/``_field_sizes`` as it
        goes; when its transaction rolls back, the stored tables are the
        only truth, so the mirrors are re-read from them.
        """
        for table in self.schema.tables:
            # MAX(pos) + 1, not COUNT(*): positions are never reused, so
            # after a physical delete the next insert must still land
            # past every position ever handed out (posting lists and the
            # memory backend's append-only physical list speak in them).
            self._positions[table.name] = (
                int(
                    self._connection.execute(
                        f"SELECT COALESCE(MAX({quote_identifier(_POSITION_COLUMN)}), -1) "
                        f"FROM {quote_identifier(table.name)}"
                    ).fetchone()[0]
                )
                + 1
            )
        for tbl, col, indexed in self._connection.execute(
            'SELECT tbl, col, indexed FROM "_quest_fields"'
        ):
            self._field_sizes[ColumnRef(tbl, col)] = int(indexed)

    def _insert_rows(
        self, cursor: sqlite3.Cursor, table: TableSchema, rows: Sequence[Row]
    ) -> None:
        """Store already-normalised rows and index their tokens.

        One ``executemany`` per statement for the whole batch: rows take
        consecutive positions from ``_positions`` in the order given.
        """
        first = self._positions[table.name]
        column_list = ", ".join(
            [quote_identifier(column.name) for column in table.columns]
            + [quote_identifier(_POSITION_COLUMN)]
        )
        placeholders = ", ".join(["?"] * (len(table.columns) + 1))
        try:
            cursor.executemany(
                f"INSERT INTO {quote_identifier(table.name)} ({column_list}) "
                f"VALUES ({placeholders})",
                (
                    [_encode(value) for value in row] + [position]
                    for position, row in enumerate(rows, first)
                ),
            )
        except sqlite3.IntegrityError as exc:
            raise IntegrityError(f"{table.name}: {exc}") from None
        self._index_tokens(
            cursor,
            table.name,
            (
                (column.name, position, tokenize_value(value))
                for position, row in enumerate(rows, first)
                for column, value in zip(table.columns, row)
            ),
        )
        self._positions[table.name] = first + len(rows)

    def _index_tokens(
        self,
        cursor: sqlite3.Cursor,
        table: str,
        streams: Iterable[tuple[str, int, list[str]]],
    ) -> None:
        """Record ``(column, position, tokens)`` streams of one relation in
        the postings, the FTS mirror and the per-attribute counters.

        The single indexing path for both the insert route and the
        ``refresh`` rebuild — the bit-parity guarantee depends on the two
        never diverging. Empty token streams are not indexed.
        """
        postings: list[tuple[str, str, str, int, int]] = []
        documents: list[tuple[str, str, int, str]] = []
        indexed: Counter = Counter()
        totals: Counter = Counter()
        for column, position, tokens in streams:
            if not tokens:
                continue
            if len(tokens) == 1:  # most values; skips building a Counter
                postings.append((tokens[0], table, column, position, 1))
            else:
                postings.extend(
                    (term, table, column, position, tf)
                    for term, tf in Counter(tokens).items()
                )
            if self._fts_enabled:
                documents.append((table, column, position, " ".join(tokens)))
            indexed[column] += 1
            totals[column] += len(tokens)
        cursor.executemany(
            'INSERT INTO "_quest_postings" (term, tbl, col, pos, tf) '
            "VALUES (?, ?, ?, ?, ?)",
            postings,
        )
        if documents:
            cursor.executemany(
                'INSERT INTO "_quest_fts" (tbl, col, pos, doc) VALUES (?, ?, ?, ?)',
                documents,
            )
        cursor.executemany(
            'UPDATE "_quest_fields" SET indexed = indexed + ?, '
            "tokens = tokens + ? WHERE tbl = ? AND col = ?",
            [(indexed[column], totals[column], table, column) for column in indexed],
        )
        for column, count in indexed.items():
            self._field_sizes[ColumnRef(table, column)] += count

    def refresh(self) -> None:
        """Rebuild the inverted index from the stored relations.

        Inserts through the backend maintain the index synchronously;
        this re-derivation exists for files written by another process.
        """
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                cursor.execute('DELETE FROM "_quest_postings"')
                cursor.execute('UPDATE "_quest_fields" SET indexed = 0, tokens = 0')
                if self._fts_enabled:
                    cursor.execute('DELETE FROM "_quest_fts"')
                for ref in self._field_sizes:
                    self._field_sizes[ref] = 0
                for table in self.schema.tables:
                    self._positions[table.name] = (
                        int(
                            cursor.execute(
                                f"SELECT COALESCE(MAX({quote_identifier(_POSITION_COLUMN)}), -1) "
                                f"FROM {quote_identifier(table.name)}"
                            ).fetchone()[0]
                        )
                        + 1
                    )
                    for column in table.columns:
                        self._index_column(cursor, table, column.name)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1

    def _index_column(
        self, cursor: sqlite3.Cursor, table: TableSchema, column: str
    ) -> None:
        dtype = table.column(column).dtype
        rows = cursor.execute(
            f"SELECT {quote_identifier(_POSITION_COLUMN)}, {quote_identifier(column)} "
            f"FROM {quote_identifier(table.name)} ORDER BY {quote_identifier(_POSITION_COLUMN)}"
        ).fetchall()
        self._index_tokens(
            cursor,
            table.name,
            (
                (column, position, tokenize_value(coerce(stored, dtype)))
                for position, stored in rows
            ),
        )

    # -- batched, journaled mutation ---------------------------------------

    def _pk_exists(self, table: str, key: tuple[Any, ...]) -> bool:
        schema = self._table_schema(table)
        where = " AND ".join(
            f"{quote_identifier(name)} = ?" for name in schema.primary_key
        )
        with self._lock:
            row = self._connection.execute(
                f"SELECT 1 FROM {quote_identifier(table)} WHERE {where}",
                [_encode(part) for part in key],
            ).fetchone()
        return row is not None

    def _persist_applied_seq(self, cursor: sqlite3.Cursor, seq: int) -> None:
        if self._has_meta:
            cursor.execute(
                'UPDATE "_quest_meta" SET value = ? WHERE key = ?',
                (seq, "applied_seq"),
            )

    def _apply_add_rows(
        self, table: str, rows: Sequence[Row], seq: int
    ) -> None:
        table_schema = self._table_schema(table)
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                self._insert_rows(cursor, table_schema, rows)
                # The applied sequence number commits with the rows: a
                # crash either keeps both or neither, so replay resumes
                # at exactly the right record.
                self._persist_applied_seq(cursor, seq)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1

    def _apply_delete_rows(
        self, table: str, keys: Sequence[tuple[Any, ...]], seq: int
    ) -> int:
        """Delete rows and unindex their tokens, one transaction.

        The stored row is read back first so its token streams can be
        removed symmetrically to how :meth:`_insert_rows` added them —
        posting rows deleted by position, ``_quest_fields`` counters
        decremented per tokenised column — keeping scores bit-identical
        to the memory backend's tombstone unindexing. Positions are
        never reused (``_reload_counters`` advances past ``MAX(pos)``).
        """
        table_schema = self._table_schema(table)
        where = " AND ".join(
            f"{quote_identifier(name)} = ?" for name in table_schema.primary_key
        )
        column_list = ", ".join(
            [quote_identifier(column.name) for column in table_schema.columns]
            + [quote_identifier(_POSITION_COLUMN)]
        )
        deleted = 0
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                for key in keys:
                    parameters = [_encode(part) for part in key]
                    row = cursor.execute(
                        f"SELECT {column_list} FROM {quote_identifier(table)} "
                        f"WHERE {where}",
                        parameters,
                    ).fetchone()
                    if row is None:  # absent: journaled replay stays idempotent
                        continue
                    position = int(row[-1])
                    for column, stored in zip(table_schema.columns, row):
                        tokens = tokenize_value(coerce(stored, column.dtype))
                        if not tokens:
                            continue
                        cursor.execute(
                            'UPDATE "_quest_fields" SET indexed = indexed - 1, '
                            "tokens = tokens - ? WHERE tbl = ? AND col = ?",
                            (len(tokens), table, column.name),
                        )
                        self._field_sizes[ColumnRef(table, column.name)] -= 1
                    cursor.execute(
                        'DELETE FROM "_quest_postings" WHERE tbl = ? AND pos = ?',
                        (table, position),
                    )
                    if self._fts_enabled:
                        cursor.execute(
                            'DELETE FROM "_quest_fts" WHERE tbl = ? AND pos = ?',
                            (table, position),
                        )
                    cursor.execute(
                        f"DELETE FROM {quote_identifier(table)} WHERE {where}",
                        parameters,
                    )
                    deleted += 1
                self._persist_applied_seq(cursor, seq)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1
        return deleted

    # -- row access --------------------------------------------------------

    def table_rows(self, table: str) -> list[Row]:
        table_schema = self._table_schema(table)
        column_list = ", ".join(quote_identifier(column.name) for column in table_schema.columns)
        with self._lock:
            fetched = self._connection.execute(
                f"SELECT {column_list} FROM {quote_identifier(table)} "
                f"ORDER BY {quote_identifier(_POSITION_COLUMN)}"
            ).fetchall()
        dtypes = [column.dtype for column in table_schema.columns]
        return [
            tuple(coerce(value, dtype) for value, dtype in zip(row, dtypes))
            for row in fetched
        ]

    def row_count(self, table: str) -> int:
        self._table_schema(table)
        with self._lock:
            row = self._connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table)}"
            ).fetchone()
        return int(row[0])

    def column_values(self, ref: ColumnRef) -> list[Any]:
        dtype = self._table_schema(ref.table).column(ref.column).dtype
        with self._lock:
            fetched = self._connection.execute(
                f"SELECT {quote_identifier(ref.column)} FROM {quote_identifier(ref.table)} "
                f"ORDER BY {quote_identifier(_POSITION_COLUMN)}"
            ).fetchall()
        return [coerce(row[0], dtype) for row in fetched]

    # -- full-text search --------------------------------------------------

    def _idf(self, field_count: int) -> float:
        # Same expression as FullTextIndex._idf, over the same integers:
        # scores stay bit-identical across backends.
        return math.log(1.0 + self._n_fields / field_count)

    def _read_sql(self, thunk, label: str):
        """Run one read-path SQL operation with the resilience wrapping.

        Every read funnels through here: the ``storage.query`` fault
        point fires first (chaos tests inject latency or
        ``OperationalError`` schedules), transient
        ``sqlite3.OperationalError`` is retried on the bounded
        jittered-exponential schedule, and every final outcome lands in
        the circuit breaker — failures push it toward open, successes
        heal it. Non-transient SQLite errors are wrapped into
        :class:`ExecutionError`.
        """

        def attempt():
            faults.fire("storage.query")
            return thunk()

        try:
            result = self._retry.call(
                attempt,
                retry_on=(sqlite3.OperationalError,),
                on_retry=lambda _exc, _n: self.breaker.record_failure(),
            )
        except sqlite3.Error as exc:
            self.breaker.record_failure()
            raise ExecutionError(f"sqlite error {label}: {exc}") from exc
        self.breaker.record_success()
        return result

    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        """TF-IDF relevance per attribute, from SQL-aggregated counts."""
        term = keyword.casefold()

        def fetch():
            with self._lock:
                return self._connection.execute(
                    'SELECT tbl, col, COUNT(*) FROM "_quest_postings" '
                    "WHERE term = ? GROUP BY tbl, col",
                    (term,),
                ).fetchall()

        grouped = self._read_sql(fetch, f"scoring {term!r}")
        if not grouped:
            return {}
        idf = self._idf(len(grouped))
        scores: dict[ColumnRef, float] = {}
        for tbl, col, count in grouped:
            ref = ColumnRef(tbl, col)
            field_size = self._field_sizes.get(ref, 0)
            if field_size == 0:
                continue
            scores[ref] = (count / field_size) * idf
        return scores

    def attribute_scores_many(
        self, keywords: Sequence[str]
    ) -> list[dict[ColumnRef, float]]:
        """Batched :meth:`attribute_scores`: one grouped SQL query for the
        whole keyword list instead of one round trip per keyword."""
        terms = [keyword.casefold() for keyword in keywords]
        unique = list(dict.fromkeys(terms))
        if not unique:
            return []
        placeholders = ", ".join("?" * len(unique))

        def fetch():
            with self._lock:
                return self._connection.execute(
                    'SELECT term, tbl, col, COUNT(*) FROM "_quest_postings" '
                    f"WHERE term IN ({placeholders}) GROUP BY term, tbl, col",
                    unique,
                ).fetchall()

        grouped = self._read_sql(fetch, "batch scoring")
        entries: dict[str, list[tuple[str, str, int]]] = {t: [] for t in unique}
        for term, tbl, col, count in grouped:
            entries[term].append((tbl, col, count))
        by_term: dict[str, dict[ColumnRef, float]] = {}
        for term in unique:
            rows = entries[term]
            if not rows:
                by_term[term] = {}
                continue
            # Same integers, same operations as attribute_scores: the
            # per-term entry count feeds the idf, count / field_size the tf.
            idf = self._idf(len(rows))
            scores: dict[ColumnRef, float] = {}
            for tbl, col, count in rows:
                ref = ColumnRef(tbl, col)
                field_size = self._field_sizes.get(ref, 0)
                if field_size == 0:
                    continue
                scores[ref] = (count / field_size) * idf
            by_term[term] = scores
        return [by_term[term] for term in terms]

    def score(self, keyword: str, ref: ColumnRef) -> float:
        term = keyword.casefold()
        field_size = self._field_sizes.get(ref, 0)
        if field_size == 0:
            return 0.0

        def fetch():
            with self._lock:
                matches = self._connection.execute(
                    'SELECT COUNT(*) FROM "_quest_postings" '
                    "WHERE term = ? AND tbl = ? AND col = ?",
                    (term, ref.table, ref.column),
                ).fetchone()[0]
                if not matches:
                    return 0, 0
                fields = self._connection.execute(
                    'SELECT COUNT(*) FROM (SELECT 1 FROM "_quest_postings" '
                    "WHERE term = ? GROUP BY tbl, col)",
                    (term,),
                ).fetchone()[0]
            return matches, fields

        matches, fields = self._read_sql(fetch, f"scoring {term!r}")
        if not matches:
            return 0.0
        return (matches / field_size) * self._idf(fields)

    def selectivity(self, keyword: str, ref: ColumnRef) -> float:
        field_size = self._field_sizes.get(ref, 0)
        if field_size == 0:
            return 0.0

        def fetch():
            with self._lock:
                return self._connection.execute(
                    'SELECT COUNT(*) FROM "_quest_postings" '
                    "WHERE term = ? AND tbl = ? AND col = ?",
                    (keyword.casefold(), ref.table, ref.column),
                ).fetchone()[0]

        return self._read_sql(fetch, "selectivity") / field_size

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        term = keyword.casefold()

        def fetch():
            with self._lock:
                if self._fts_enabled and _FTS_TERM_RE.fullmatch(term):
                    return self._connection.execute(
                        'SELECT pos FROM "_quest_fts" '
                        'WHERE "_quest_fts" MATCH ? AND tbl = ? AND col = ? '
                        "ORDER BY pos",
                        (f'doc:"{term}"', ref.table, ref.column),
                    ).fetchall()
                return self._connection.execute(
                    'SELECT pos FROM "_quest_postings" '
                    "WHERE term = ? AND tbl = ? AND col = ? ORDER BY pos",
                    (term, ref.table, ref.column),
                ).fetchall()

        rows = self._read_sql(fetch, f"matching positions for {term!r}")
        return [int(row[0]) for row in rows]

    @property
    def fts_enabled(self) -> bool:
        """Whether the FTS5 retrieval accelerator is active."""
        return self._fts_enabled

    # -- execution ---------------------------------------------------------

    def _narrow_contains(
        self, alias: str, table: str, column: str, keyword: Any
    ) -> list[str]:
        """Conjuncts restricting a CONTAINS predicate to its posting lists.

        One ``_quest_pos IN (posting list)`` per distinct keyword token:
        a row can contain the keyword only if it holds every token, so
        the conjuncts only narrow and ``QUEST_CONTAINS`` stays the exact
        check. With ``_quest_pos`` indexed, SQLite drives the alias from
        the posting rows instead of scanning it. The postings tokenise
        the very values ``QUEST_CONTAINS`` sees (booleans through the
        renderer's ``True``/``False`` unwrapping), with the same
        ``tokenize_value``; a column outside the index gets no conjunct
        and keeps the scan.
        """
        if ColumnRef(table, column) not in self._field_sizes:
            return []
        tokens = tokenize_value(str(keyword))
        if not tokens:
            return ["0"]  # a keyword without tokens matches nothing
        target = f"{quote_identifier(alias)}.{quote_identifier(_POSITION_COLUMN)}"
        field = f"tbl = {render_literal(table)} AND col = {render_literal(column)}"
        return [
            f'{target} IN (SELECT pos FROM "_quest_postings" '
            f"WHERE term = {render_literal(token)} AND {field})"
            for token in dict.fromkeys(tokens)
        ]

    def _prepare(self, query: SelectQuery) -> tuple[str, tuple[tuple[str, DataType], ...]]:
        """Validate, expand and render *query* for SQLite execution."""
        for predicate in query.predicates:
            if predicate.value is None or predicate.op in (
                Comparison.CONTAINS,
                Comparison.LIKE,
            ):
                continue
            dtype = self.schema.table(query.table_of(predicate.alias)).column(
                predicate.column
            ).dtype
            # Every cross-type comparison is rejected eagerly. Ordering
            # mismatches raise in the in-memory executor too; EQ/NE
            # mismatches are silent there (never/always true per non-null
            # row) but cannot be reproduced here — SQLite's type affinity
            # would coerce e.g. the '1994' in ``year = '1994'`` and
            # *match*, and dates stored as ISO text would equal str
            # constants. Failing loudly beats silently diverging.
            if not isinstance(predicate.value, _COMPARABLE[dtype]):
                raise ExecutionError(
                    f"type mismatch evaluating {predicate}: {predicate.value!r}"
                )
        if query.projection:
            targets = list(query.projection)
            prepared = query
        else:
            # The in-memory executor projects every column of every alias
            # (and applies DISTINCT to those full-width rows); expanding
            # the projection reproduces that, including column labels.
            targets = [
                (alias, column)
                for alias in query.aliases
                for column in self.schema.table(query.table_of(alias)).column_names
            ]
            prepared = replace(query, projection=tuple(targets))
        dtypes = tuple(
            (
                f"{alias}.{column}",
                self.schema.table(query.table_of(alias)).column(column).dtype,
            )
            for alias, column in targets
        )
        sql = render_sql(
            prepared, dialect="sqlite", schema=self.schema, narrow=self._narrow_contains
        )
        return sql, dtypes

    def execute(self, query: SelectQuery) -> ResultSet:
        sql, columns = self._prepare(query)

        def fetch():
            with self._lock:
                return self._connection.execute(sql).fetchall()

        fetched = self._read_sql(fetch, f"for {sql!r}")
        dtypes = [dtype for _name, dtype in columns]
        rows = [
            tuple(coerce(value, dtype) for value, dtype in zip(row, dtypes))
            for row in fetched
        ]
        return ResultSet(tuple(name for name, _dtype in columns), rows)

    def result_count(self, query: SelectQuery) -> int:
        """Count results engine-side — no rows cross the boundary."""
        sql, _columns = self._prepare(query)
        counted = f"SELECT COUNT(*) FROM ({sql})"

        def fetch():
            with self._lock:
                return self._connection.execute(counted).fetchone()

        row = self._read_sql(fetch, f"for {sql!r}")
        return int(row[0])

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __repr__(self) -> str:
        fts = "fts5" if self._fts_enabled else "emulated"
        return (
            f"SQLiteBackend({self.schema.name!r}, path={self.path!r}, "
            f"index={fts})"
        )
