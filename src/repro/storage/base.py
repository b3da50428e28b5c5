"""The storage-backend contract: everything QUEST asks of its DBMS.

QUEST is "conceived as a tool working on top of a traditional DBMS": the
engine needs a schema catalog, a full-text search function it can turn
into emission scores, a way to execute the generated SQL, and instance
statistics for the backward step's edge weights. :class:`StorageBackend`
names exactly that surface, so the whole engine — wrappers, pipeline,
datasets, evaluation harness — is written against the protocol rather
than against one concrete store.

Two implementations ship: :class:`~repro.storage.memory.MemoryBackend`
(the original in-memory ``Database`` + executor + ``FullTextIndex`` trio)
and :class:`~repro.storage.sqlite.SQLiteBackend` (relations persisted to
SQLite, SQL executed by SQLite, emission scores served from an inverted
index stored in SQLite). Backends guarantee *score parity*: for the same
loaded data, full-text scores, statistics and query result counts are
identical across backends, so rankings never depend on where the bytes
live (see ARCHITECTURE.md, "Storage backends").

Result counts are cached per backend, keyed by the query and the
backend :attr:`~StorageBackend.version` (:meth:`StorageBackend.result_count`).
QUEST keeps an explanation only if its SQL returns rows, and one pass
of searches asks for the same count many times over, so a repeat is
served without touching the store. The cache is exact:

- a count is a function of (query, data) alone;
- every write advances ``version`` only after its rows are visible. On
  memory, ``Table.apply_prepared``/``delete_rows`` advance the counter
  under the table lock once the rows are in place, and the postings the
  count narrows by refresh lazily off that counter under
  ``FullTextIndex._lock``, which the write holds until its refresh is
  done. On SQLite, ``SQLiteBackend._write`` advances ``_version`` after
  ``COMMIT``, and questlint keeps every version move inside it;
- the version is read *before* counting, so a reader that starts after
  a write returns asks under the new version, and a count that races a
  write is stored under the version read before it began — a key no
  later reader asks for. This is the argument of the wrapper's emission
  cache (:meth:`~repro.cache.LRUCache.sync`).

A write made through another process's backend is not seen until
:meth:`~StorageBackend.refresh` bumps this process's version, the same
rule emission scores and SQLite's ``_field_sizes`` follow. Failed
counts are never stored.
"""

from __future__ import annotations

import abc
import threading
from pathlib import Path
from functools import partial
from typing import Any, Mapping, Sequence

import numpy as np

from repro import faults
from repro.cache import LRUCache
from repro.db.catalog import Catalog
from repro.db.executor import ResultSet
from repro.db.query import SelectQuery
from repro.db.schema import ColumnRef, Schema
from repro.db.table import Row, normalise_key, normalise_row, prepare_rows
from repro.forksafe import register_lock_holder
from repro.journal import MutationJournal, MutationRecord

__all__ = ["COUNT_CACHE_SIZE", "StorageBackend"]

#: Capacity of each backend's result-count cache. Sized from measured
#: distinct (query, version) counts: 320 over sqlite_explain's 111 gold
#: searches, at most 634 in one write_oltp round.
COUNT_CACHE_SIZE = 1024


def _count_key(query: SelectQuery, version: int) -> tuple[Any, ...]:
    """A flat cache key for *query*'s count at *version*.

    Only strings, ints and the predicate constants go in, so the
    collector untracks the tuple and a full cache adds nothing to the
    GC's work. Each constant is preceded by its type's name: ``1``,
    ``1.0`` and ``True`` compare equal in Python but are different
    CONTAINS keywords (``"1"`` against ``"True"``), so the key never
    conflates them. The section lengths up front keep the flat layout
    unambiguous.
    """
    key: list[Any] = [
        version,
        query.distinct,
        query.limit,
        len(query.tables),
        len(query.joins),
        len(query.predicates),
    ]
    for ref in query.tables:
        key += (ref.table, ref.alias)
    for join in query.joins:
        key += (join.left_alias, join.left_column, join.right_alias, join.right_column)
    for predicate in query.predicates:
        value = predicate.value
        key += (
            predicate.alias,
            predicate.column,
            predicate.op.value,
            type(value).__name__,
            value,
        )
    for alias, column in query.projection:
        key += (alias, column)
    return tuple(key)


def _reset_writer_lock(backend: "StorageBackend") -> None:
    backend._writer_lock = threading.Lock()


class StorageBackend(abc.ABC):
    """One engine's view of wherever the relations actually live.

    The surface splits into five concerns, mirroring the paper's setup
    and run-time phases:

    - **catalog** — schema plus lazily-computed instance statistics;
    - **row access** — ordered rows and column extensions (what the
      statistics and the graph baselines read);
    - **full-text search** — the keyword-vs-attribute ranking function
      emission probabilities are normalised from;
    - **execution** — running generated :class:`SelectQuery` plans;
    - **mutation** — journaled batches (:meth:`add_rows`/:meth:`delete_rows`)
      plus a refresh hook keeping derived indexes correct, mirroring the
      Steiner cache's ``add_edge`` invalidation.
    """

    #: Registry name of the backend ("memory", "sqlite", ...).
    name: str = "backend"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._catalog: Catalog | None = None
        #: The attached write-ahead mutation journal (None = unjournaled;
        #: batched mutations then apply directly, without durability).
        self._journal: MutationJournal | None = None
        #: Last journal sequence number whose mutation has been applied.
        self._applied_seq = 0
        #: Result counts by (query, version); see :meth:`result_count`.
        self._counts = LRUCache(COUNT_CACHE_SIZE, label="count")
        #: Held across validate -> journal -> apply, so two batches never
        #: validate against the same stored state; taken before the
        #: table, index and SQLite locks. Forked children get a fresh
        #: lock (see repro.forksafe).
        self._writer_lock = threading.Lock()
        register_lock_holder(self, _reset_writer_lock)

    # -- construction ------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_database(cls, database: Any, **kwargs: Any) -> "StorageBackend":
        """Build a backend holding the contents of an in-memory database."""

    # -- catalog -----------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The source catalog (statistics computed through this backend)."""
        if self._catalog is None:
            self._catalog = Catalog(self.schema, self)
        return self._catalog

    # -- row access --------------------------------------------------------

    @abc.abstractmethod
    def table_rows(self, table: str) -> list[Row]:
        """All rows of *table*, as typed tuples in insertion order."""

    @abc.abstractmethod
    def row_count(self, table: str) -> int:
        """Number of tuples stored in *table*."""

    def column_values(self, ref: ColumnRef) -> list[Any]:
        """All values of the referenced column, in row order."""
        position = self.schema.table(ref.table).column_names.index(ref.column)
        return [row[position] for row in self.table_rows(ref.table)]

    def total_rows(self) -> int:
        """Total number of tuples stored across all tables."""
        return sum(self.row_count(table.name) for table in self.schema.tables)

    # -- mutation ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Consumers caching anything derived from the instance (the
        wrappers' emission-vector LRU) compare this between reads and
        invalidate on change — the storage-layer mirror of the Steiner
        cache's ``add_edge`` invalidation. Static sources may keep the
        default constant.
        """
        return 0

    @abc.abstractmethod
    def refresh(self) -> None:
        """Re-derive full-text structures after out-of-band mutation.

        Writes through :meth:`add_rows`/:meth:`delete_rows` never require
        this; it exists for data that changed behind the backend's back
        (a shared in-memory ``Database`` mutated directly, a SQLite file
        written by another process).
        """

    # -- batched, journaled mutation ---------------------------------------

    def add_rows(
        self, table: str, rows: Sequence[Mapping[str, Any] | Sequence[Any]]
    ) -> list[Row]:
        """Insert a batch into *table*, journal-first.

        This is the only way rows enter a backend. The write path is
        **validate → journal → apply**: every row is normalised and
        checked (:func:`~repro.db.table.prepare_rows`) before anything
        happens, the whole batch is appended (and fsynced) to the
        attached mutation journal, and only then applied — so the moment
        this method returns, the mutation both *happened* and *survives a
        crash*: replaying the journal after a ``kill -9`` reconstructs
        exactly the acknowledged state. Without a journal attached the
        apply runs directly.

        Applies are atomic with respect to concurrent searches:
        implementations publish either the pre-batch or post-batch
        rankings, never a torn intermediate. Concurrent batches run one
        at a time, validation included, so a key two of them add is
        stored by the first and rejected by the second before it is
        journaled.
        """
        with self._writer_lock:
            normalised = prepare_rows(
                self.schema.table(table), rows, partial(self._pk_exists, table)
            )
            seq = self._journal_append(
                "add", table, rows=[list(r) for r in normalised]
            )
            self._apply_add_rows(table, normalised, seq)
            self._applied_seq = seq
        return normalised

    def delete_rows(
        self, table: str, keys: Sequence[tuple[Any, ...] | Any]
    ) -> int:
        """Delete the *table* rows behind *keys*, journal-first.

        Same **validate → journal → apply** discipline as
        :meth:`add_rows`. Absent keys are skipped (deletes are
        idempotent, which is what makes journal replay safe). Returns
        how many rows actually existed.
        """
        schema = self.schema.table(table)
        normalised = [normalise_key(schema, key) for key in keys]
        with self._writer_lock:
            seq = self._journal_append(
                "delete", table, keys=[list(k) for k in normalised]
            )
            count = self._apply_delete_rows(table, normalised, seq)
            self._applied_seq = seq
        return count

    def _journal_append(self, op: str, table: str, **payload: Any) -> int:
        if self._journal is None:
            return self._applied_seq + 1
        return self._journal.append(op, table, **payload)

    def _pk_exists(self, table: str, key: tuple[Any, ...]) -> bool:
        """Whether *key* is already stored in *table* (live rows only)."""
        raise NotImplementedError

    def _apply_add_rows(
        self, table: str, rows: Sequence[Row], seq: int
    ) -> None:
        """Apply a validated batch (guaranteed not to fail).

        *seq* is the journal sequence number this apply corresponds to;
        transactional backends persist it atomically with the rows so a
        crash can never leave "applied but not recorded as applied" (or
        vice versa) on disk.
        """
        raise NotImplementedError

    def _apply_delete_rows(
        self, table: str, keys: Sequence[tuple[Any, ...]], seq: int
    ) -> int:
        """Apply a batch of normalised-key deletes; returns rows removed."""
        raise NotImplementedError

    # -- journal lifecycle -------------------------------------------------

    @property
    def journal(self) -> MutationJournal | None:
        """The attached write-ahead mutation journal, if any."""
        return self._journal

    @property
    def applied_seq(self) -> int:
        """Last journal sequence number applied to the stored state."""
        return self._applied_seq

    def attach_journal(
        self, journal: MutationJournal, replay: bool = True
    ) -> int:
        """Attach *journal* so future batched mutations are journaled.

        With *replay* (the default), records past :attr:`applied_seq`
        are re-applied first — the recovery path that reconstructs
        acknowledged mutations after a crash. Returns how many records
        were replayed.
        """
        replayed = 0
        if replay:
            replayed = self.replay_journal(journal)
        self._journal = journal
        return replayed

    def replay_journal(
        self, journal: MutationJournal, up_to_seq: int | None = None
    ) -> int:
        """Re-apply journal records past :attr:`applied_seq`.

        Stops after *up_to_seq* when given (recovery uses this to bring
        the state exactly to a sealed artifact's generation before
        attempting the artifact load). Returns the number of records
        applied.
        """
        replayed = 0
        with self._writer_lock:
            for record in journal.records(after_seq=self._applied_seq):
                if up_to_seq is not None and record.seq > up_to_seq:
                    break
                faults.fire("journal.replay")
                self._replay_record(record)
                self._applied_seq = record.seq
                replayed += 1
        return replayed

    def _replay_record(self, record: MutationRecord) -> None:
        """Apply one journaled mutation without re-journaling it."""
        if record.op == "add":
            schema = self.schema.table(record.table)
            rows = [normalise_row(schema, values) for values in record.rows or []]
            self._apply_add_rows(record.table, rows, record.seq)  # questlint: disable=journal-discipline  # recovery replay: the record being applied was already journaled (it came *from* the journal)
        else:
            schema = self.schema.table(record.table)
            keys = [normalise_key(schema, key) for key in record.keys or []]
            self._apply_delete_rows(record.table, keys, record.seq)  # questlint: disable=journal-discipline  # recovery replay: the record being applied was already journaled (it came *from* the journal)

    # -- full-text search --------------------------------------------------

    @abc.abstractmethod
    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        """TF-IDF relevance of *keyword* per attribute containing it."""

    def attribute_scores_many(
        self, keywords: Sequence[str]
    ) -> list[dict[ColumnRef, float]]:
        """Per-keyword :meth:`attribute_scores` for a whole query at once.

        Feeds the default :meth:`emission_block`. A backend that can
        amortise work across keywords (one grouped SQL query on SQLite)
        overrides it; the default simply loops. Cell values are
        bit-identical to the per-keyword calls either way.
        """
        return [self.attribute_scores(keyword) for keyword in keywords]

    def emission_block(
        self, keywords: Sequence[str], refs: Sequence[ColumnRef]
    ) -> np.ndarray:
        """Dense ``(len(keywords), len(refs))`` score matrix.

        Row *i*, column *j* equals ``attribute_scores(keywords[i]).get(
        refs[j], 0.0)`` bit for bit — this is the array the vectorised
        emission path writes straight into the HMM's DOMAIN-state columns.
        """
        block = np.zeros((len(keywords), len(refs)))
        for i, scores in enumerate(self.attribute_scores_many(keywords)):
            if scores:
                block[i] = [scores.get(ref, 0.0) for ref in refs]
        return block

    # -- index artifacts ---------------------------------------------------

    def save_index(self, path: str | Path) -> bool:
        """Persist the backend's derived search index to *path*.

        Returns ``False`` when the backend has no separable index artifact
        (SQLite's inverted index already lives in its database file).
        """
        return False

    def load_index(self, path: str | Path, mmap: bool = False) -> bool:
        """Re-attach a saved index artifact, skipping the build.

        With ``mmap=True`` the artifact arrays are memory-mapped rather
        than materialised, so co-located processes attaching the same
        file share physical pages (the preforked serving tier's
        warm-start path). Raises
        :class:`~repro.errors.IndexArtifactError` on a stale or foreign
        artifact; returns ``False`` when the backend does not use
        separable index artifacts.
        """
        return False

    @abc.abstractmethod
    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        """Sorted row positions whose ``ref.column`` contains *keyword*."""

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        """Whether some live row of ``ref`` holds *token* (one lookup).

        *token* is one :func:`~repro.db.fulltext.tokenize_value` token
        of a CONTAINS keyword. ``False`` is a proof: the postings
        tokenise the very values the exact CONTAINS check sees, so no
        row of ``ref`` can contain a keyword with that token. ``None``
        decides nothing — the default, and a backend's answer for a
        column outside its index.
        """
        return None

    # -- execution ---------------------------------------------------------

    @abc.abstractmethod
    def execute(self, query: SelectQuery) -> ResultSet:
        """Evaluate *query* and materialise the results."""

    def result_count(self, query: SelectQuery) -> int:
        """Number of rows *query* yields (respecting DISTINCT and LIMIT).

        Served from the backend's count cache when this query was
        counted at the current :attr:`version` (see the module
        docstring for why that is exact); otherwise counted by
        :meth:`_count_rows` and stored. The version is read before
        counting, and a count that raises is not stored.
        """
        version = self.version
        self._counts.sync((version,))
        key = _count_key(query, version)
        count = self._counts.get(key)
        if count is None:
            count = self._count_rows(query)
            self._counts.put(key, count)
        return count

    def _count_rows(self, query: SelectQuery) -> int:
        """Count *query*'s rows in the store, uncached.

        Backends that can count without materialising (SQLite's
        ``COUNT(*)`` pushdown) override this; the default executes and
        counts.
        """
        return len(self.execute(query))

    @property
    def count_cache(self) -> LRUCache:
        """The backend's (query, version) -> row count cache."""
        return self._counts

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release any held resources (connections, file handles)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schema.name!r}, "
            f"rows={self.total_rows()})"
        )
