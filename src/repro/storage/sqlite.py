"""SQLite storage backend: persistent relations, SQL execution, scoring.

Relations live in a SQLite database (a file or ``:memory:``); generated
:class:`~repro.db.query.SelectQuery` plans are rendered to SQLite SQL by
:mod:`repro.db.sqlgen` and executed by SQLite itself — joins, DISTINCT,
LIMIT and result counting all happen engine-side. Emission
scoring, CONTAINS narrowing and the explain stage's existence checks
all read one inverted index stored *in* SQLite:

- ``_quest_postings(term, tbl, col, pos, tf)`` — the per-attribute
  posting lists, built with the exact tokenisation of
  :func:`repro.db.fulltext.tokenize_value`;
- ``_quest_fields(tbl, col, indexed, tokens)`` — per-attribute document
  counts (the TF normaliser).

Scores are computed from SQL-aggregated integer counts with the same
float arithmetic as :class:`~repro.db.fulltext.FullTextIndex`, so they
are **bit-identical** to the memory backend's — which is what keeps
rankings independent of the storage engine. SQLite's own full-text
ranking is deliberately not used: it would break that parity guarantee,
and a second token store would add to every write. A file written when
the backend still kept such a mirror table opens normally; the table is
never read or written again.

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

Statements are compiled once per query shape. The sqlite dialect binds
every value as a parameter, so queries that differ only in keywords or
constants share one text: the backend renders it once per
:class:`~repro.db.sqlgen.StatementShape` (a bounded cache on the
backend, filled lazily by the first query of each shape) and binds each
query's values, and the connection's ``cached_statements`` (set well
above the shape count, on every connect) keeps SQLite from compiling it
again. ``execute`` and ``_count_rows`` share this path. A count the
backend's count cache already holds for the current version (see
:meth:`~repro.storage.base.StorageBackend.result_count`) skips all of
it: no shape, no narrowing, no statement.

CONTAINS is index-driven: each predicate is preceded by one
``_quest_pos IN (posting list)`` conjunct per distinct keyword token,
and every relation indexes ``_quest_pos`` and its foreign-key columns,
so SQLite seeks the posting rows and joins outward instead of calling
``QUEST_CONTAINS`` on every row. The exact ``QUEST_CONTAINS`` check runs
on those rows only when the keyword has more than one token (a phrase)
or none; a one-token keyword's posting list already decides it (see
:meth:`SQLiteBackend._narrow_contains`). The postings are maintained in
the same transaction as every write through the backend; rows written
into the file behind its back need :meth:`SQLiteBackend.refresh` before
CONTAINS (like scoring) sees them. Every write is one
:meth:`SQLiteBackend._write` transaction; a bulk load or an ``add_rows``
batch stores its rows, posting rows and field counters with one
``executemany`` per statement.
The explain stage asks :meth:`SQLiteBackend.has_postings` whether a
token has any posting row in a column (one primary-key seek) before it
counts anything: a configuration with an absent token is never counted.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager
import sqlite3
import threading
from datetime import date
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from repro.cache import LRUCache
from repro.db.database import Database
from repro.db.executor import ResultSet, contains_match, like_match
from repro.db.fulltext import tokenize_value
from repro.db.query import Comparison, SelectQuery
from repro.db.schema import ColumnRef, Schema, TableSchema
from repro.forksafe import register_lock_holder
from repro.db.sqlgen import (
    Narrowing,
    StatementShape,
    quote_identifier,
    render_shape,
    sqlite_shape,
    sqlite_value,
)
from repro.db.table import Row
from repro.db.types import DataType, coerce
from repro.errors import ExecutionError, IntegrityError, UnknownTableError
from repro import faults
from repro.resilience import FailureWindow, RetryPolicy
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

_POSITION_COLUMN = "_quest_pos"

#: How long a connection waits on a writer's lock before giving up.
#: Multi-process serving (preforked workers over one database file) makes
#: brief lock collisions routine; failing them instantly with "database
#: is locked" would shed healthy requests.
_BUSY_TIMEOUT_MS = 5_000

#: Rendered statements kept per backend, one per query shape. The
#: explain counts of the dblp ``papers=1000`` gold queries (111
#: searches) have 116 shapes.
_SHAPE_CACHE_SIZE = 256

#: Compiled statements SQLite keeps per connection (``cached_statements``,
#: keyed on the text): every shape's SELECT and COUNT plus the backend's
#: own fixed statements, with room to spare.
_STATEMENT_CACHE_SIZE = 512

#: The narrowing of a keyword without tokens: it matches nothing.
_MATCHES_NOTHING = Narrowing(("0",), (), False)


class _Statement(NamedTuple):
    """One shape's rendered statements and output columns."""

    select: str
    count: str
    columns: tuple[str, ...]
    dtypes: tuple[DataType, ...]


def _reset_sqlite_lock(backend: "SQLiteBackend") -> None:
    backend._lock = threading.RLock()
    # The read_health window registers its own lock holder (see
    # resilience.window), so its lock is reset independently of ours.


class SQLiteBackend(StorageBackend):
    """Relations persisted to SQLite; search and execution pushed down."""

    name = "sqlite"

    def __init__(
        self,
        schema: Schema,
        path: str = ":memory:",
        initialize: bool = True,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(schema)
        self.path = str(path)
        #: Records the outcome of every read-path SQL call, for the
        #: service's degraded-mode reporting. It refuses nothing: reads
        #: keep executing (with bounded retry) while it reports failing.
        self.read_health = FailureWindow(f"sqlite:{path}")
        #: Bounded jittered-exponential retry for transient
        #: OperationalError (busy/locked under WAL writer contention).
        self._retry = retry or RetryPolicy()
        # One connection guarded by a lock: concurrent searches (the
        # serving tier's executor threads) share it. Forked children get a
        # fresh lock (see repro.forksafe) — and a fresh connection too,
        # via the existing per-pid reconnect in _connection().
        self._lock = threading.RLock()
        register_lock_holder(self, _reset_sqlite_lock)
        #: Rendered statements by (query shape, version); see _statement.
        self._shapes = LRUCache(_SHAPE_CACHE_SIZE, label="sql_shape")
        self._conn = self._connect()
        self._pid = os.getpid()
        #: next insertion position per table (mirrors memory row positions)
        self._positions: dict[str, int] = {}
        #: advanced by _write after every COMMIT (see StorageBackend.version)
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
            self._has_meta = True
            for table in schema.tables:
                self._positions[table.name] = 0
        else:
            self._has_meta = self._table_exists("_quest_meta")
            self._load_state()
        # On open, a file built before these indexes existed gains them
        # here, once; CONTAINS narrowing is exact without them, just slower.
        self._create_indexes()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self.path,
            check_same_thread=False,
            cached_statements=_STATEMENT_CACHE_SIZE,
        )
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
        connection, which re-applies the WAL/busy_timeout pragmas and the
        statement-cache size.
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
        with self._write() as cursor:
            for table in database.tables:
                self._insert_rows(cursor, table.schema, table.rows)

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

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Cursor]:
        """One write transaction, yielding its cursor; commits at the end.

        On any error it rolls back and re-reads the in-memory mirrors
        (:meth:`_reload_counters`). The version advances here only, after
        ``COMMIT``, which keeps the count cache exact (:mod:`repro.storage.base`).
        """
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("BEGIN")
            try:
                yield cursor
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                self._reload_counters()
                raise
            self._version += 1

    def _reload_counters(self) -> None:
        """Re-read the in-memory mirrors from the stored tables.

        Writes advance ``_positions``/``_field_sizes`` as they go; when
        their transaction rolls back, the stored tables are the only
        truth. Opening a file and ``refresh`` read them the same way.
        """
        for table in self.schema.tables:
            # MAX(pos) + 1, not COUNT(*): positions are never reused, so
            # after a physical delete the next insert must still land
            # past every position ever handed out (posting lists and the
            # memory backend's append-only physical list speak in them).
            (last,) = self._connection.execute(
                f"SELECT COALESCE(MAX({quote_identifier(_POSITION_COLUMN)}), -1) "
                f"FROM {quote_identifier(table.name)}"
            ).fetchone()
            self._positions[table.name] = int(last) + 1
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
                    [sqlite_value(value) for value in row] + [position]
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
        the postings and the per-attribute counters.

        The single indexing path for both the ``_insert_rows`` route and the
        ``refresh`` rebuild — the bit-parity guarantee depends on the two
        never diverging. Empty token streams are not indexed.
        """
        postings: list[tuple[str, str, str, int, int]] = []
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
            indexed[column] += 1
            totals[column] += len(tokens)
        cursor.executemany(
            'INSERT INTO "_quest_postings" (term, tbl, col, pos, tf) '
            "VALUES (?, ?, ?, ?, ?)",
            postings,
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

        Writes through ``add_rows``/``delete_rows`` maintain the index in
        their own transaction; this re-derivation exists for files
        written by another process.
        """
        with self._write() as cursor:
            cursor.execute('DELETE FROM "_quest_postings"')
            cursor.execute('UPDATE "_quest_fields" SET indexed = 0, tokens = 0')
            # Zeroed field sizes, and positions past every stored row.
            self._reload_counters()
            for table in self.schema.tables:
                for column in table.columns:
                    self._index_column(cursor, table, column.name)

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
        schema = self.schema.table(table)
        where = " AND ".join(
            f"{quote_identifier(name)} = ?" for name in schema.primary_key
        )
        with self._lock:
            row = self._connection.execute(
                f"SELECT 1 FROM {quote_identifier(table)} WHERE {where}",
                [sqlite_value(part) for part in key],
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
        table_schema = self.schema.table(table)
        with self._write() as cursor:
            self._insert_rows(cursor, table_schema, rows)
            # The applied sequence number commits with the rows: a crash
            # either keeps both or neither, so replay resumes at exactly
            # the right record.
            self._persist_applied_seq(cursor, seq)

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
        table_schema = self.schema.table(table)
        where = " AND ".join(
            f"{quote_identifier(name)} = ?" for name in table_schema.primary_key
        )
        column_list = ", ".join(
            [quote_identifier(column.name) for column in table_schema.columns]
            + [quote_identifier(_POSITION_COLUMN)]
        )
        deleted = 0
        with self._write() as cursor:
            for key in keys:
                parameters = [sqlite_value(part) for part in key]
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
                cursor.execute(
                    f"DELETE FROM {quote_identifier(table)} WHERE {where}",
                    parameters,
                )
                deleted += 1
            self._persist_applied_seq(cursor, seq)
        return deleted

    # -- row access --------------------------------------------------------

    def table_rows(self, table: str) -> list[Row]:
        table_schema = self.schema.table(table)
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
        self.schema.table(table)
        with self._lock:
            row = self._connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table)}"
            ).fetchone()
        return int(row[0])

    def column_values(self, ref: ColumnRef) -> list[Any]:
        dtype = self.schema.table(ref.table).column(ref.column).dtype
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

    def _read_sql(self, thunk, label: str, sql: str | None = None):
        """Run one read-path SQL operation with the resilience wrapping.

        Every read funnels through here: the ``storage.query`` fault
        point fires first (chaos tests inject latency or
        ``OperationalError`` schedules), transient
        ``sqlite3.OperationalError`` is retried on the bounded
        jittered-exponential schedule, and every outcome (each failed
        attempt included) lands in the ``read_health`` window.
        Non-transient SQLite errors are wrapped into
        :class:`ExecutionError`, whose message names *label* and the
        statement *sql*, if given (formatted only then).
        """

        def attempt():
            faults.fire("storage.query")
            return thunk()

        try:
            result = self._retry.call(
                attempt,
                retry_on=(sqlite3.OperationalError,),
                on_retry=lambda _exc, _n: self.read_health.record(False),
            )
        except sqlite3.Error as exc:
            self.read_health.record(False)
            where = label if sql is None else f"{label} {sql!r}"
            raise ExecutionError(f"sqlite error {where}: {exc}") from exc
        self.read_health.record(True)
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

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        term = keyword.casefold()

        def fetch():
            with self._lock:
                return self._connection.execute(
                    'SELECT pos FROM "_quest_postings" '
                    "WHERE term = ? AND tbl = ? AND col = ? ORDER BY pos",
                    (term, ref.table, ref.column),
                ).fetchall()

        rows = self._read_sql(fetch, f"matching positions for {term!r}")
        return [int(row[0]) for row in rows]

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        """One seek on the postings' primary key; ``None`` off the index.

        Decides exactly the columns :meth:`_narrow_contains` narrows, from
        the same ``_quest_postings`` rows, which change in the same
        transaction as every write through the backend.
        """
        if ref not in self._field_sizes:
            return None

        def fetch():
            with self._lock:
                return self._connection.execute(
                    'SELECT 1 FROM "_quest_postings" '
                    "WHERE term = ? AND tbl = ? AND col = ? LIMIT 1",
                    (token, ref.table, ref.column),
                ).fetchone()

        return self._read_sql(fetch, f"postings of {token!r}") is not None

    # -- execution ---------------------------------------------------------

    def _narrow_contains(
        self, alias: str, table: str, column: str, keyword: Any
    ) -> Narrowing | None:
        """Conjuncts restricting a CONTAINS predicate to its posting lists.

        One ``_quest_pos IN (posting list)`` per distinct keyword token:
        a row can contain the keyword only if it holds every token, so
        the conjuncts narrow, and with ``_quest_pos`` indexed SQLite
        drives the alias from the posting rows instead of scanning it.
        The postings tokenise the very values ``QUEST_CONTAINS`` sees
        (booleans through the renderer's ``True``/``False`` unwrapping),
        with the same ``tokenize_value``; a column outside the index gets
        no narrowing and keeps the scan.

        For a keyword of exactly one token the conjunct is also the exact
        check, so the narrowing is marked ``exact`` and ``QUEST_CONTAINS``
        is left out. ``contains_match`` of a one-token keyword is token
        membership in ``tokenize_value`` of the value, which is what the
        posting list holds. The postings change in the same transaction
        as every write through the backend, and rows are only inserted or
        deleted, never updated in place, so no posting row outlives or
        predates the value it was taken from. A multi-token keyword is a
        phrase: each token's list only narrows it, and the check stays,
        as it does for a repeated token (``paris paris``). A keyword
        without tokens matches nothing (``0``).
        """
        if ColumnRef(table, column) not in self._field_sizes:
            return None
        tokens = tokenize_value(str(keyword))
        if not tokens:
            return _MATCHES_NOTHING
        distinct = dict.fromkeys(tokens)
        target = f"{quote_identifier(alias)}.{quote_identifier(_POSITION_COLUMN)}"
        conjunct = (
            f'{target} IN (SELECT pos FROM "_quest_postings" '
            "WHERE term = ? AND tbl = ? AND col = ?)"
        )
        return Narrowing(
            (conjunct,) * len(distinct),
            tuple(value for token in distinct for value in (token, table, column)),
            len(tokens) == 1,
        )

    def _statement(self, query: SelectQuery) -> tuple[_Statement, list[Any]]:
        """Validate *query*; its shape's statement and the values to bind.

        The statement is rendered once per shape and kept in
        :attr:`_shapes`, so SQLite's statement cache (keyed on the text)
        compiles it once too. The key carries the backend version: no
        write changes a shape's text, so after a write each shape renders
        once more and the entries of older versions age out.
        """
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
        shape, params = sqlite_shape(query, self._narrow_contains)
        key = (shape, self._version)
        statement = self._shapes.get(key)
        if statement is None:
            statement = self._render(shape)
            self._shapes.put(key, statement)
        return statement, params

    def _render(self, shape: StatementShape) -> _Statement:
        """The statement texts and output columns of one shape."""
        if not shape.projection:
            # The in-memory executor projects every column of every alias
            # (and applies DISTINCT to those full-width rows); expanding
            # the projection reproduces that, including column labels.
            shape = shape._replace(
                projection=tuple(
                    (ref.alias, column)
                    for ref in shape.tables
                    for column in self.schema.table(ref.table).column_names
                )
            )
        tables = {ref.alias: ref.table for ref in shape.tables}
        sql = render_shape(shape, self.schema)
        return _Statement(
            sql,
            f"SELECT COUNT(*) FROM ({sql})",
            tuple(f"{alias}.{column}" for alias, column in shape.projection),
            tuple(
                self.schema.table(tables[alias]).column(column).dtype
                for alias, column in shape.projection
            ),
        )

    def execute(self, query: SelectQuery) -> ResultSet:
        statement, params = self._statement(query)

        def fetch():
            with self._lock:
                return self._connection.execute(statement.select, params).fetchall()

        fetched = self._read_sql(fetch, "for", statement.select)
        dtypes = statement.dtypes
        rows = [
            tuple(coerce(value, dtype) for value, dtype in zip(row, dtypes))
            for row in fetched
        ]
        return ResultSet(statement.columns, rows)

    def _count_rows(self, query: SelectQuery) -> int:
        """Count results engine-side — no rows cross the boundary."""
        statement, params = self._statement(query)

        def fetch():
            with self._lock:
                return self._connection.execute(statement.count, params).fetchone()

        row = self._read_sql(fetch, "for", statement.select)
        return int(row[0])

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __repr__(self) -> str:
        return f"SQLiteBackend({self.schema.name!r}, path={self.path!r})"
