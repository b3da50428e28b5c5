"""The in-memory storage backend: the original substrate, behind the protocol.

``MemoryBackend`` is the extraction of the ``Database`` / ``executor`` /
``FullTextIndex`` trio the engine was originally hard-wired to. It owns
nothing new — it binds the three together and exposes them through the
:class:`~repro.storage.base.StorageBackend` surface, so existing code
keeps its exact behaviour (and its object identities: the wrapped
``Database`` stays reachable for the instance-graph baselines and tests).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.db.database import Database
from repro.db.executor import ResultSet, execute, result_count
from repro.db.fulltext import FullTextIndex
from repro.db.query import SelectQuery
from repro.db.schema import ColumnRef
from repro.db.table import Row
from repro.storage.base import StorageBackend

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Relations stored as Python tuples, searched by the local executor."""

    name = "memory"

    def __init__(self, database: Database, fulltext: FullTextIndex | None = None) -> None:
        super().__init__(database.schema)
        self.database = database
        self.fulltext = fulltext if fulltext is not None else FullTextIndex(database)

    @classmethod
    def from_database(cls, database: Database, **kwargs: Any) -> "MemoryBackend":
        return cls(database, **kwargs)

    # -- row access --------------------------------------------------------

    def table_rows(self, table: str) -> list[Row]:
        return self.database.table(table).rows

    def row_count(self, table: str) -> int:
        return len(self.database.table(table))

    def column_values(self, ref: ColumnRef) -> list[Any]:
        return self.database.column_values(ref)

    # -- mutation ----------------------------------------------------------

    @property
    def version(self) -> int:
        return self.database.version

    def refresh(self) -> None:
        self.fulltext.refresh()

    # -- batched, journaled mutation ---------------------------------------

    def _pk_exists(self, table: str, key: tuple[Any, ...]) -> bool:
        return self.database.table(table).get(key) is not None

    def _apply_add_rows(
        self, table: str, rows: Sequence[Row], seq: int
    ) -> None:
        # Table mutation and index refresh commit under the index lock,
        # so a concurrent search (whose read path takes the same lock
        # for its version check) observes the pre-batch or post-batch
        # rankings — never a torn intermediate where the rows are stored
        # but unindexed.
        with self.fulltext._lock:
            self.database.table(table).apply_prepared(rows)
            self.fulltext.refresh()

    def _apply_delete_rows(
        self, table: str, keys: Sequence[tuple[Any, ...]], seq: int
    ) -> int:
        with self.fulltext._lock:
            count = self.database.table(table).delete_rows(keys)
            self.fulltext.refresh()
        return count

    # -- full-text search --------------------------------------------------

    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        return self.fulltext.attribute_scores(keyword)

    def emission_block(
        self, keywords: Sequence[str], refs: Sequence[ColumnRef]
    ) -> np.ndarray:
        return self.fulltext.emission_block(keywords, refs)

    # -- index artifacts ---------------------------------------------------

    def save_index(self, path: str | Path) -> bool:
        """Persist the full-text index as a ``.npz`` artifact.

        The artifact is stamped with the backend's applied journal
        sequence number as its *generation* and published atomically
        (temp + fsync + rename) — see :meth:`FullTextIndex.save`.
        """
        self.fulltext.save(path, generation=self._applied_seq)
        return True

    def load_index(self, path: str | Path, mmap: bool = False) -> bool:
        """Replace the index with the artifact at *path* (validated
        against the wrapped database — see :meth:`FullTextIndex.load`).
        ``mmap=True`` maps the arrays instead of materialising them."""
        self.fulltext = FullTextIndex.load(path, self.database, mmap=mmap)
        return True

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        return self.fulltext.matching_row_positions(keyword, ref)

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        # Decides exactly the columns _postings narrows.
        if not self.fulltext.indexes(ref):
            return None
        return self.fulltext.has_postings(token, ref)

    # -- execution ---------------------------------------------------------

    def _postings(self, token: str, ref: ColumnRef) -> list[int] | None:
        # The index tokenises the very values the executor matches, with
        # the same tokenize_value, over every column it was built for.
        if not self.fulltext.indexes(ref):
            return None
        return self.fulltext.matching_row_positions(token, ref)

    def execute(self, query: SelectQuery) -> ResultSet:
        """Run *query*, narrowing CONTAINS predicates to their postings."""
        return execute(self.database, query, self._postings)

    def _count_rows(self, query: SelectQuery) -> int:
        """Count *query*'s rows without materialising them."""
        return result_count(self.database, query, self._postings)
