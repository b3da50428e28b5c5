"""Inverted full-text index over attribute extensions.

QUEST assumes the DBMS exposes a search function that, given a keyword,
ranks attribute values by importance; emission probabilities of the forward
HMM are obtained by normalising its scores per attribute. This module is our
stand-in for that black box: a per-attribute inverted index with TF-IDF
scoring, where each (table, column) pair is treated as a retrieval field.

Only TEXT columns are tokenised; numeric, boolean and date columns are
indexed by their literal rendering so keywords like ``1994`` still hit a
``year`` column.

The index stays correct under row inserts *and* tombstoned deletes: the
physical row list is append-only, so :meth:`FullTextIndex.refresh`
indexes only the physical tail added since the last build and unindexes
exactly the tail of the table's deletion log, and every read path checks
the database's mutation counter first (lazy refresh — the same
invalidation contract the Steiner cache honours on
``SchemaGraph.add_edge``).

Every read is answered from exactly one of two sources:

* the **columnar snapshot** — a :class:`ColumnarPostings` sealed from
  the dicts: an interned vocabulary plus CSR-style numpy arrays
  (per-term entry offsets, field ids, match counts, row positions), with
  per-field document-frequency vectors. Scoring is array slicing, whole
  queries are scored in one :meth:`ColumnarPostings.emission_block`
  pass, and the snapshot is immutable — reads run lock-free on it after
  a single version check.
* the **dicts** — term -> {field -> {row -> tf}}, the mutable structure
  refreshes append into and the snapshot is sealed from. They always
  hold the full current state.

A current snapshot answers every read. A write that touches a term
releases the snapshot and records the term in :attr:`delta_terms`; from
then on the dicts answer every read (under the index lock) until
:meth:`FullTextIndex.merge`, ``warm`` or ``save`` reseals. A write that
touches no term leaves a current snapshot current. Both sources compute
scores from the same integers with the same float operations, so a
read from the dicts is **bit-identical** to a fresh seal. The
hypothesis parity suite in ``tests/perf/test_index_parity.py`` holds
both to a brute-force reference built straight from the table rows
(``tests/oracle.py``).

The columnar snapshot is also a **persistable artifact**: ``save(path)``
writes one ``.npz`` file (arrays + a JSON catalog header), ``load(path,
db)`` re-attaches it to a database after validating the header against the
live schema and mutation counter — a warm process skips the whole build.

Artifacts can additionally be **memory-mapped** (``load(path, db,
mmap=True)``): ``np.savez`` stores its members uncompressed, so each array
is one contiguous byte range of the archive file and can be handed back as
an ``np.memmap`` view instead of a private in-heap copy. N preforked
serving workers mapping the same artifact then share one set of physical
pages through the OS page cache — warm start for N workers at the memory
cost of one. The mapped arrays are read-only, matching the snapshot's
immutability contract, and bit-identical to a materialised load.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import threading
import time
import zipfile
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import faults
from repro.db.database import Database
from repro.db.schema import ColumnRef
from repro.errors import IndexArtifactError
from repro.forksafe import register_lock_holder
from repro.resilience import RetryPolicy

__all__ = ["ColumnarPostings", "FullTextIndex", "tokenize_value"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _reset_fulltext_lock(index: "FullTextIndex") -> None:
    index._lock = threading.RLock()

#: Artifact format identifier; bumped whenever the array layout or the
#: catalog header changes (v2 added per-array content checksums, the
#: mutation generation and per-table deletion counts).
_ARTIFACT_FORMAT = "quest-fulltext-v2"


def tokenize_value(value: object) -> list[str]:
    """Lower-case alphanumeric tokens of a stored value."""
    if value is None:
        return []
    return _TOKEN_RE.findall(str(value).casefold())


#: Fixed part of a ZIP local file header: signature, versions, flags,
#: method, times, CRC, sizes, then the name/extra lengths at bytes 26/28.
_ZIP_LOCAL_HEADER_SIZE = 30


def _mmap_member(
    path: Path, raw, info: zipfile.ZipInfo
) -> np.ndarray | None:
    """A read-only ``np.memmap`` view of one stored (uncompressed) member.

    ``np.load`` memory-maps only bare ``.npy`` files, but an ``.npz``
    written by ``np.savez`` stores members with ``ZIP_STORED``, so the
    member's payload is a contiguous range of the archive: seek past the
    local file header (whose name/extra lengths vary per member), parse
    the ``.npy`` header in place, and map the array data that follows.
    Returns ``None`` for members that cannot be mapped (compressed or
    object-dtype) — the caller falls back to a materialised read.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    raw.seek(info.header_offset)
    local = raw.read(_ZIP_LOCAL_HEADER_SIZE)
    if len(local) != _ZIP_LOCAL_HEADER_SIZE or local[:4] != b"PK\x03\x04":
        raise IndexArtifactError(
            f"index artifact {path}: corrupt local header for {info.filename!r}"
        )
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    raw.seek(info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len)
    version = np.lib.format.read_magic(raw)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
    else:  # pragma: no cover - numpy writes 1.0/2.0 only
        return None
    if dtype.hasobject:  # pragma: no cover - we never save object arrays
        return None
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=raw.tell(),
        shape=shape,
        order="F" if fortran else "C",
    )


def _read_artifact(
    path: str | Path, mmap: bool
) -> tuple[dict, dict[str, np.ndarray]]:
    """The artifact's ``(catalog header, arrays)``; arrays are memory-mapped
    views when *mmap* is set (falling back per member where impossible)."""
    path = Path(path)
    try:
        if not mmap:
            with np.load(path, allow_pickle=False) as data:
                header = json.loads(str(data["header"]))
                arrays = {
                    name: data[name] for name in data.files if name != "header"
                }
            return header, arrays
        arrays = {}
        header = None
        with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                if name == "header":
                    # The tiny JSON header is read, never mapped.
                    with archive.open(info) as member:
                        header = json.loads(
                            str(np.lib.format.read_array(member, allow_pickle=False))
                        )
                    continue
                mapped = _mmap_member(path, raw, info)
                if mapped is None:  # pragma: no cover - savez never compresses
                    with archive.open(info) as member:
                        mapped = np.lib.format.read_array(
                            member, allow_pickle=False
                        )
                arrays[name] = mapped
        if header is None:
            raise KeyError("header")
        return header, arrays
    except (
        OSError,
        KeyError,
        ValueError,
        zipfile.BadZipFile,  # truncated/corrupt archive (a cache casualty)
        zlib.error,  # truncated member payload
    ) as exc:
        raise IndexArtifactError(
            f"unreadable index artifact {path}: {exc}"
        ) from exc


def _field_mismatch(artifact_fields: list[str], live_fields: list[str]) -> str:
    """Which field(s) differ between an artifact header and the live schema.

    A stale-artifact refusal that names the exact offending attribute(s)
    turns "covers a different field set" from a shrug into a diagnosis
    (a migrated column, a renamed table, a reordered schema).
    """
    artifact_set, live_set = set(artifact_fields), set(live_fields)
    missing = sorted(live_set - artifact_set)
    extra = sorted(artifact_set - live_set)
    parts: list[str] = []
    if missing:
        parts.append(f"missing from artifact: {', '.join(missing)}")
    if extra:
        parts.append(f"unknown to schema: {', '.join(extra)}")
    if not parts:
        # Same set, different order: name the first disagreeing slot.
        for position, (got, expected) in enumerate(
            zip(artifact_fields, live_fields)
        ):
            if got != expected:
                parts.append(
                    f"field order differs at position {position}: "
                    f"artifact has {got}, schema has {expected}"
                )
                break
    return "; ".join(parts) or "field lists differ"


class ColumnarPostings:
    """An immutable CSR-style snapshot of the inverted index.

    Layout (all arrays numpy, row positions sorted within an entry):

    - ``vocabulary``: term -> term id (terms sorted lexicographically);
    - ``term_offsets[t] : term_offsets[t + 1]`` — the slice of *entries*
      (one entry per (term, field) pair holding the term) for term ``t``;
    - ``entry_fields`` / ``entry_counts`` — field id and matching-row
      count of each entry (fields ascending within a term);
    - ``entry_offsets[e] : entry_offsets[e + 1]`` — the slice of
      ``row_positions`` / ``row_tfs`` for entry ``e``;
    - ``field_sizes`` / ``field_tokens`` — per-field indexed-value and
      token counts (the TF normaliser), in schema field order.

    Scores are computed from the same integers with the same operations
    as the dicts' path (``count / field_size`` then ``* idf``), so
    every float is bit-identical whichever side answers a term.
    """

    __slots__ = (
        "vocabulary",
        "term_offsets",
        "entry_fields",
        "entry_counts",
        "entry_offsets",
        "row_positions",
        "row_tfs",
        "field_sizes",
        "field_tokens",
        "fields",
        "field_ids",
        "n_fields",
    )

    def __init__(
        self,
        vocabulary: dict[str, int],
        term_offsets: np.ndarray,
        entry_fields: np.ndarray,
        entry_counts: np.ndarray,
        entry_offsets: np.ndarray,
        row_positions: np.ndarray,
        row_tfs: np.ndarray,
        field_sizes: np.ndarray,
        field_tokens: np.ndarray,
        fields: tuple[ColumnRef, ...],
    ) -> None:
        self.vocabulary = vocabulary
        self.term_offsets = term_offsets
        self.entry_fields = entry_fields
        self.entry_counts = entry_counts
        self.entry_offsets = entry_offsets
        self.row_positions = row_positions
        self.row_tfs = row_tfs
        self.field_sizes = field_sizes
        self.field_tokens = field_tokens
        self.fields = fields
        self.field_ids = {ref: i for i, ref in enumerate(fields)}
        self.n_fields = len(fields)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_postings(
        cls,
        postings: dict[str, dict[ColumnRef, dict[int, int]]],
        field_sizes: dict[ColumnRef, int],
        field_tokens: dict[ColumnRef, int],
    ) -> "ColumnarPostings":
        """Seal the mutable dict layout into an immutable snapshot.

        The row-level work is vectorised: the Python pass only flattens
        the per-entry position maps into flat lists (C-level ``extend``
        over dict views, insertion order), then one global lexsort under
        (entry rank, position) replaces the per-entry ``sorted`` +
        flatten. The final arrays are identical to the sealed layout the
        per-entry loop produced.
        """
        fields = tuple(field_sizes)
        field_ids = {ref: i for i, ref in enumerate(fields)}
        terms = sorted(postings)
        vocabulary = {term: i for i, term in enumerate(terms)}
        entry_term: list[int] = []
        entry_field: list[int] = []
        entry_rows: list[int] = []
        flat_positions: list[int] = []
        flat_tfs: list[int] = []
        for t, term in enumerate(terms):
            for ref, rows in postings[term].items():
                entry_term.append(t)
                entry_field.append(field_ids[ref])
                entry_rows.append(len(rows))
                flat_positions.extend(rows.keys())
                flat_tfs.extend(rows.values())
        n_entries = len(entry_term)
        entry_terms = np.asarray(entry_term, dtype=np.int64)
        raw_fields = np.asarray(entry_field, dtype=np.int64)
        counts = np.asarray(entry_rows, dtype=np.int64)
        # Entries ordered by (term, field id). The outer loop already
        # emits terms in vocabulary order, so the (stable) lexsort only
        # has to settle field order within each term.
        entry_order = np.lexsort((raw_fields, entry_terms))
        sorted_counts = counts[entry_order]
        entry_offsets = np.zeros(n_entries + 1, dtype=np.int64)
        np.cumsum(sorted_counts, out=entry_offsets[1:])
        term_offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_terms, minlength=len(terms)), out=term_offsets[1:])
        if flat_positions:
            positions = np.asarray(flat_positions, dtype=np.int64)
            tfs = np.asarray(flat_tfs, dtype=np.int64)
            # Each flattened row keeps its entry's *final* rank, so one
            # global sort under (entry rank, position) both places the
            # entries in (term, field) order and sorts positions
            # ascending within each entry.
            entry_rank = np.empty(n_entries, dtype=np.int64)
            entry_rank[entry_order] = np.arange(n_entries)
            row_order = np.lexsort((positions, np.repeat(entry_rank, counts)))
            row_positions = positions[row_order]
            row_tfs = tfs[row_order]
        else:
            row_positions = np.empty(0, dtype=np.int64)
            row_tfs = np.empty(0, dtype=np.int64)
        return cls(
            vocabulary=vocabulary,
            term_offsets=term_offsets,
            entry_fields=raw_fields[entry_order].astype(np.int32),
            entry_counts=sorted_counts,
            entry_offsets=entry_offsets,
            row_positions=row_positions,
            row_tfs=row_tfs,
            field_sizes=np.asarray(
                [field_sizes[ref] for ref in fields], dtype=np.int64
            ),
            field_tokens=np.asarray(
                [field_tokens[ref] for ref in fields], dtype=np.int64
            ),
            fields=fields,
        )

    def to_postings(
        self,
    ) -> dict[str, dict[ColumnRef, dict[int, int]]]:
        """Rebuild the mutable dicts (for incremental refresh after a
        pure artifact load)."""
        postings: dict[str, dict[ColumnRef, dict[int, int]]] = defaultdict(dict)
        for term, t in self.vocabulary.items():
            by_field = postings[term]
            for e in range(int(self.term_offsets[t]), int(self.term_offsets[t + 1])):
                ref = self.fields[int(self.entry_fields[e])]
                lo, hi = int(self.entry_offsets[e]), int(self.entry_offsets[e + 1])
                by_field[ref] = {
                    int(p): int(f)
                    for p, f in zip(self.row_positions[lo:hi], self.row_tfs[lo:hi])
                }
        return postings

    # -- scoring -----------------------------------------------------------

    def _term_entries(self, term: str) -> slice | None:
        t = self.vocabulary.get(term)
        if t is None:
            return None
        return slice(int(self.term_offsets[t]), int(self.term_offsets[t + 1]))

    def _entry_of(self, term: str, ref: ColumnRef) -> int | None:
        """Index of the (term, field) entry, or ``None`` when absent.

        The single lookup behind every scalar read path: binary search of
        the field id within the term's entry slice (fields are stored
        ascending per term).
        """
        entries = self._term_entries(term)
        field_id = self.field_ids.get(ref)
        if entries is None or field_id is None:
            return None
        e = entries.start + int(
            np.searchsorted(self.entry_fields[entries], field_id)
        )
        if e >= entries.stop or int(self.entry_fields[e]) != field_id:
            return None
        return e

    def _idf(self, entry_count: int) -> float:
        # Same expression over the same integers as FullTextIndex._idf.
        return math.log(1.0 + self.n_fields / entry_count)

    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        """TF-IDF relevance of *keyword* per attribute (array slicing)."""
        entries = self._term_entries(keyword.casefold())
        if entries is None:
            return {}
        fields = self.entry_fields[entries]
        # int64 / int64 -> float64 matches Python's int / int division;
        # the subsequent `* idf` keeps the reference association order.
        values = (
            self.entry_counts[entries] / self.field_sizes[fields]
        ) * self._idf(entries.stop - entries.start)
        return {
            self.fields[int(field)]: float(value)
            for field, value in zip(fields, values)
        }

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        """Sorted row positions of *keyword* in ``ref`` (stored sorted)."""
        e = self._entry_of(keyword.casefold(), ref)
        if e is None:
            return []
        lo, hi = int(self.entry_offsets[e]), int(self.entry_offsets[e + 1])
        return [int(p) for p in self.row_positions[lo:hi]]

    def has_postings(self, term: str, ref: ColumnRef) -> bool:
        """Whether *term* has a (term, field) entry: one probe, no list."""
        return self._entry_of(term, ref) is not None

    def emission_block(
        self, keywords: Sequence[str], refs: Sequence[ColumnRef]
    ) -> np.ndarray:
        """Scores of every keyword against every requested attribute.

        The batched form of :meth:`attribute_scores`: one ``(len(keywords),
        len(refs))`` float matrix filled by array slicing per keyword — the
        vectorised pass the forward stage scores a whole query with. Cell
        values are bit-identical to ``attribute_scores(kw).get(ref, 0.0)``.
        """
        ref_ids = np.asarray(
            [self.field_ids.get(ref, -1) for ref in refs], dtype=np.int64
        )
        # Scatter per-keyword field scores into a dense per-field row, then
        # gather the requested columns: O(nnz + len(refs)) per keyword.
        out = np.zeros((len(keywords), len(refs)))
        row = np.zeros(self.n_fields + 1)  # slot -1 absorbs unknown refs
        for i, keyword in enumerate(keywords):
            entries = self._term_entries(keyword.casefold())
            if entries is None:
                continue
            fields = self.entry_fields[entries]
            row[fields] = (
                self.entry_counts[entries] / self.field_sizes[fields]
            ) * self._idf(entries.stop - entries.start)
            out[i] = row[ref_ids]
            row[fields] = 0.0
        return out

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)

    # -- persistence -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The snapshot's array payload (for ``np.savez``)."""
        return {
            "terms": np.asarray(list(self.vocabulary), dtype=str),
            "term_offsets": self.term_offsets,
            "entry_fields": self.entry_fields,
            "entry_counts": self.entry_counts,
            "entry_offsets": self.entry_offsets,
            "row_positions": self.row_positions,
            "row_tfs": self.row_tfs,
            "field_sizes": self.field_sizes,
            "field_tokens": self.field_tokens,
        }

    @classmethod
    def from_arrays(
        cls, data: dict[str, np.ndarray], fields: tuple[ColumnRef, ...]
    ) -> "ColumnarPostings":
        """Rehydrate a snapshot from a saved array payload.

        ``asanyarray`` keeps ``np.memmap`` inputs as memmaps (same-dtype
        conversion is a no-op view, and ``asarray`` would launder the
        subclass away) — a snapshot attached by a mmap load stays
        visibly backed by the artifact file.
        """
        terms = [str(t) for t in data["terms"]]
        return cls(
            vocabulary={term: i for i, term in enumerate(terms)},
            term_offsets=np.asanyarray(data["term_offsets"], dtype=np.int64),
            entry_fields=np.asanyarray(data["entry_fields"], dtype=np.int32),
            entry_counts=np.asanyarray(data["entry_counts"], dtype=np.int64),
            entry_offsets=np.asanyarray(data["entry_offsets"], dtype=np.int64),
            row_positions=np.asanyarray(data["row_positions"], dtype=np.int64),
            row_tfs=np.asanyarray(data["row_tfs"], dtype=np.int64),
            field_sizes=np.asanyarray(data["field_sizes"], dtype=np.int64),
            field_tokens=np.asanyarray(data["field_tokens"], dtype=np.int64),
            fields=fields,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarPostings(terms={len(self.vocabulary)}, "
            f"entries={len(self.entry_fields)}, fields={self.n_fields})"
        )


class FullTextIndex:
    """Inverted index mapping terms to per-attribute posting lists."""

    def __init__(self, db: Database) -> None:
        self._db = db
        #: term -> {ColumnRef -> {row_position -> term frequency}} — the
        #: mutable layout refreshes append into. Empty (and flagged
        #: unhydrated) right after an artifact load; rebuilt from the
        #: snapshot only if a later mutation needs appending.
        self._postings: dict[str, dict[ColumnRef, dict[int, int]]] = defaultdict(dict)
        self._postings_hydrated = True
        #: ColumnRef -> number of indexed (non-null) values
        self._field_sizes: dict[ColumnRef, int] = {}
        #: ColumnRef -> total token count
        self._field_tokens: dict[ColumnRef, int] = {}
        #: table name -> number of rows already indexed
        self._indexed_rows: dict[str, int] = {}
        for table in db.tables:
            for column in table.schema.columns:
                ref = ColumnRef(table.name, column.name)
                self._field_sizes[ref] = 0
                self._field_tokens[ref] = 0
            self._indexed_rows[table.name] = 0
        self._n_fields = len(self._field_sizes)
        #: table name -> number of deletion-log entries already unindexed
        self._indexed_deletions: dict[str, int] = {
            table.name: 0 for table in db.tables
        }
        #: The sealed columnar layout while it is current; None before
        #: the first seal and after a write released it.
        self._snapshot: ColumnarPostings | None = None
        #: Terms written since the last seal. While non-empty there is no
        #: snapshot and the dicts answer every read.
        self._delta_terms: set[str] = set()
        #: Mutation generation the index state corresponds to — the last
        #: applied journal sequence number at save/load time. Purely
        #: bookkeeping for the artifact republish cycle; 0 = unmanaged.
        self.generation = 0
        #: True while the snapshot arrays are np.memmap views of a saved
        #: artifact (reset when a write releases the snapshot).
        self._mmapped = False
        # Built lazily: the first read triggers the initial refresh, so
        # constructing an index (e.g. for an execute-only endpoint that
        # never searches) costs nothing.
        self._built_version = -1
        self._lock = threading.RLock()
        # PreforkServer forks while sibling searches may sit inside
        # this lock (every columnar read enters it); forked children get
        # a fresh one (see repro.forksafe).
        register_lock_holder(self, _reset_fulltext_lock)

    @property
    def mmapped(self) -> bool:
        """Whether the snapshot is memory-mapped from a saved artifact."""
        return self._mmapped

    def refresh(self) -> None:
        """Index rows inserted, and unindex rows deleted, since the last build.

        Physical row lists are append-only (deletes are tombstones), so
        refreshing reduces to each table's deletion-log tail and physical
        tail — O(changed rows), not O(all rows). Safe to call at any time
        and from any thread (wrappers are shared across threaded engines):
        the build is serialised, and a second caller finds nothing left.
        """
        with self._lock:
            self._refresh_locked()

    def merge(self) -> None:
        """Index any unindexed tail and seal it into the columnar snapshot.

        The only way back to snapshot reads after a write: until it (or
        :meth:`save`) runs, the dicts answer every read. As :meth:`warm`
        it forces the first build: reads do that lazily, and endpoints
        that want the cost paid at setup time call it explicitly.
        """
        with self._lock:
            self._refresh_locked()
            if self._snapshot is None:
                self._seal_locked()

    #: One body, two names: ``warm`` for the first build, ``merge`` for
    #: folding a write delta. A class-level alias, so wrapping ``merge``
    #: on an instance does not also wrap ``warm``.
    warm = merge

    @property
    def delta_terms(self) -> frozenset[str]:
        """Terms written since the last seal (empty while a snapshot is
        current)."""
        with self._lock:
            return frozenset(self._delta_terms)

    def _hydrate_locked(self) -> None:
        # Loaded from an artifact and now needed mutably: rebuild the
        # mutable layout from the snapshot once, then append normally.
        if not self._postings_hydrated:
            assert self._snapshot is not None
            self._postings = defaultdict(dict, self._snapshot.to_postings())
            self._postings_hydrated = True

    def _refresh_locked(self) -> None:
        # Snapshot the version (and each table's length) BEFORE scanning:
        # a row inserted concurrently mid-scan then leaves the snapshot
        # behind the live version, so the next read refreshes again
        # instead of silently treating the unscanned row as indexed.
        version = self._db.version
        if version == self._built_version:
            return
        self._hydrate_locked()
        touched: set[str] = set()
        for table in self._db.tables:
            watermark = self._indexed_rows[table.name]
            # 1. Unindex the deletion-log tail. Entries at or past the
            # indexed watermark were never indexed — the tail scan below
            # skips their tombstones, so there is nothing to remove.
            log = table.deletion_log
            done = self._indexed_deletions.get(table.name, 0)
            if done < len(log):
                for position in log[done:]:
                    if position < watermark:
                        self._unindex_position_locked(table, position, touched)
                self._indexed_deletions[table.name] = len(log)
            # 2. Index the physical tail, skipping rows already deleted.
            rows = table.storage_rows
            end = len(rows)
            if watermark >= end:
                continue
            for column in table.schema.columns:
                ref = ColumnRef(table.name, column.name)
                position = table.column_position(column.name)
                indexed = 0
                tokens_total = 0
                for row_position in range(watermark, end):
                    if table.is_deleted(row_position):
                        continue
                    tokens = tokenize_value(rows[row_position][position])
                    if not tokens:
                        continue
                    indexed += 1
                    tokens_total += len(tokens)
                    for term, frequency in Counter(tokens).items():
                        field_postings = self._postings[term].setdefault(ref, {})
                        field_postings[row_position] = frequency
                        touched.add(term)
                self._field_sizes[ref] += indexed
                self._field_tokens[ref] += tokens_total
            self._indexed_rows[table.name] = end
        # Before the first seal there is nothing to release: the next read
        # seals. Otherwise a touched term makes the snapshot stale; drop
        # it (hydration already ran above) and let the dicts answer.
        if touched and (self._snapshot is not None or self._delta_terms):
            self._delta_terms |= touched
            self._snapshot = None
            self._mmapped = False
        self._built_version = version

    def _unindex_position_locked(
        self, table, position: int, touched: set[str]
    ) -> None:
        """Remove one tombstoned row's postings (the inverse of indexing).

        The physical row tuple is still readable (tombstones never
        reclaim storage), so the exact tokens indexed earlier can be
        re-derived and removed symmetrically.
        """
        row = table.storage_rows[position]
        for column in table.schema.columns:
            ref = ColumnRef(table.name, column.name)
            value_position = table.column_position(column.name)
            tokens = tokenize_value(row[value_position])
            if not tokens:
                continue
            self._field_sizes[ref] -= 1
            self._field_tokens[ref] -= len(tokens)
            for term in set(tokens):
                by_field = self._postings.get(term)
                if by_field is None:
                    continue
                field_postings = by_field.get(ref)
                if field_postings is None:
                    continue
                field_postings.pop(position, None)
                # Prune empty levels so the dict layout stays exactly
                # what a from-scratch build of the live rows produces
                # (vocabulary size and idf read structure, not values).
                if not field_postings:
                    del by_field[ref]
                if not by_field:
                    del self._postings[term]
                touched.add(term)

    def _seal_locked(self) -> None:
        # Only called with no snapshot, so the dicts are hydrated: a load
        # attaches one, and refresh hydrates before a write releases it.
        self._snapshot = ColumnarPostings.from_postings(
            self._postings, self._field_sizes, self._field_tokens
        )
        self._mmapped = False
        self._delta_terms.clear()

    # -- read-path plumbing ------------------------------------------------

    def _current(self) -> ColumnarPostings | None:
        """One version check, then the refreshed columnar snapshot.

        Every public read calls this exactly once: the mutation counter is
        compared (and a lazy refresh run) under the lock a single time,
        and reads then proceed lock-free on the immutable snapshot. The
        first read seals it. Returns ``None`` after a write released the
        snapshot: the caller then answers from the dicts inside
        :meth:`_reading`, until :meth:`merge` reseals.
        """
        with self._lock:
            self._refresh_locked()
            if self._snapshot is None and not self._delta_terms:
                self._seal_locked()
            return self._snapshot

    @contextmanager
    def _reading(self):
        """Serialise reads of the dicts against refreshes.

        Dict reads iterate the structure a concurrent refresh would
        mutate, so the whole read holds the lock, refreshing once on
        entry. Callers come here only with no snapshot, so the dicts are
        hydrated (see :meth:`_seal_locked`).
        """
        with self._lock:
            self._refresh_locked()
            yield

    # -- vocabulary --------------------------------------------------------

    def __contains__(self, term: str) -> bool:
        snapshot = self._current()
        if snapshot is not None:
            return term.casefold() in snapshot.vocabulary
        with self._reading():
            return term.casefold() in self._postings

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        snapshot = self._current()
        if snapshot is not None:
            return snapshot.vocabulary_size
        with self._reading():
            return len(self._postings)

    def fields(self) -> tuple[ColumnRef, ...]:
        """Every indexed attribute."""
        return tuple(self._field_sizes)

    def indexes(self, ref: ColumnRef) -> bool:
        """Whether *ref* is an indexed attribute (one dict lookup)."""
        return ref in self._field_sizes

    # -- scoring -----------------------------------------------------------

    def _idf(self, by_field: dict[ColumnRef, dict[int, int]]) -> float:
        """Inverse document frequency of a term given its posting map."""
        return math.log(1.0 + self._n_fields / len(by_field))

    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        """TF-IDF relevance of *keyword* for each attribute containing it.

        The score for attribute *a* is ``tf_a * idf`` where ``tf_a`` is the
        fraction of *a*'s indexed values containing the keyword and ``idf``
        dampens terms spread across many attributes. Scores are positive and
        unnormalised; the HMM emission builder normalises them per state.
        """
        snapshot = self._current()
        if snapshot is not None:
            return snapshot.attribute_scores(keyword)
        with self._reading():
            return self._attribute_scores_locked(keyword)

    def _attribute_scores_locked(self, keyword: str) -> dict[ColumnRef, float]:
        by_field = self._postings.get(keyword.casefold())
        if not by_field:
            return {}
        idf = self._idf(by_field)
        return {
            ref: len(rows) / self._field_sizes[ref] * idf
            for ref, rows in by_field.items()
        }

    def emission_block(
        self, keywords: Sequence[str], refs: Sequence[ColumnRef]
    ) -> np.ndarray:
        """Batched keyword-vs-attribute score matrix (see
        :meth:`ColumnarPostings.emission_block`)."""
        snapshot = self._current()
        if snapshot is not None:
            return snapshot.emission_block(keywords, refs)
        out = np.zeros((len(keywords), len(refs)))
        with self._reading():
            for i, keyword in enumerate(keywords):
                scores = self._attribute_scores_locked(keyword)
                if scores:
                    out[i] = [scores.get(ref, 0.0) for ref in refs]
        return out

    # -- retrieval -----------------------------------------------------------

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        """Row positions in ``ref.table`` whose ``ref.column`` contains *keyword*."""
        snapshot = self._current()
        if snapshot is not None:
            return snapshot.matching_row_positions(keyword, ref)
        with self._reading():
            by_field = self._postings.get(keyword.casefold(), {})
            return sorted(by_field.get(ref, {}))

    def has_postings(self, token: str, ref: ColumnRef) -> bool:
        """Whether some live row's ``ref.column`` holds *token*.

        The existence half of :meth:`matching_row_positions`, routed the
        same way (snapshot or dicts) but answered by one entry probe or
        dict lookup, never by building the position list. Deleted rows are unindexed on refresh, so a
        ``False`` here means no live row holds the token.
        """
        snapshot = self._current()
        if snapshot is not None:
            return snapshot.has_postings(token, ref)
        with self._reading():
            by_field = self._postings.get(token)
            return bool(by_field and by_field.get(ref))

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path, generation: int | None = None) -> None:
        """Atomically write the built index to *path* as one ``.npz`` artifact.

        The artifact holds the columnar arrays plus a JSON catalog header
        (schema name, field list, per-table indexed row counts and
        processed deletion counts, source mutation counter, the applied
        journal *generation*, and a per-array content checksum) that
        :meth:`load` validates against the live database — a stale or
        torn artifact is refused, never silently served.

        Publication is crash-atomic: the archive is written to a
        same-directory temp file, flushed and fsynced, then renamed over
        *path* with ``os.replace``. Readers therefore only ever observe
        the previous complete generation or the new complete generation;
        warm mmap readers keep serving the inode they have open until
        they re-attach between requests.
        """
        path = Path(path)
        with self._lock:
            self._refresh_locked()
            if self._snapshot is None:
                self._seal_locked()
            snapshot = self._snapshot
            assert snapshot is not None
            if generation is not None:
                self.generation = generation
            arrays = snapshot.arrays()
            header = {
                "format": _ARTIFACT_FORMAT,
                "schema": self._db.schema.name,
                "fields": [str(ref) for ref in self._field_sizes],
                "indexed_rows": dict(self._indexed_rows),
                "deleted_rows": dict(self._indexed_deletions),
                "source_version": self._built_version,
                "generation": self.generation,
                "checksums": {
                    name: zlib.crc32(np.ascontiguousarray(array).tobytes())
                    for name, array in arrays.items()
                },
            }
        temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(temp, "wb") as handle:
                np.savez(
                    handle,
                    header=np.asarray(json.dumps(header, sort_keys=True)),
                    **arrays,
                )
                handle.flush()
                faults.fire("fs.fsync")
                os.fsync(handle.fileno())
            faults.fire("artifact.replace")
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        # Make the rename itself durable (best effort — not every
        # filesystem supports opening a directory for fsync).
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(dir_fd)

    @classmethod
    def load(
        cls,
        path: str | Path,
        db: Database,
        mmap: bool = False,
    ) -> "FullTextIndex":
        """Attach a saved artifact to *db*, skipping the build entirely.

        With ``mmap=True`` the snapshot arrays are read-only
        ``np.memmap`` views over the artifact file instead of private
        in-heap copies — preforked serving workers mapping the same file
        share one set of physical pages through the page cache. Scores
        are bit-identical either way.

        Raises :class:`~repro.errors.IndexArtifactError` when the artifact
        does not describe *db*'s current state: wrong format, wrong
        schema, different field set, or a mutation-counter / row-count
        mismatch (the database moved since the artifact was written).
        """
        faults.fire("artifact.load")
        header, arrays = _read_artifact(path, mmap=mmap)
        if header.get("format") != _ARTIFACT_FORMAT:
            raise IndexArtifactError(
                f"index artifact {path} has format {header.get('format')!r}, "
                f"expected {_ARTIFACT_FORMAT!r}"
            )
        if header.get("schema") != db.schema.name:
            raise IndexArtifactError(
                f"index artifact {path} was built for schema "
                f"{header.get('schema')!r}, not {db.schema.name!r}"
            )
        # Verify every array's content checksum BEFORE handing anything
        # to numpy parsing or mmap-backed readers: a byte-truncated or
        # bit-flipped member must surface here as a stale-artifact
        # refusal, not as a downstream parse error or silent bad scores
        # (the mmap fast path bypasses the ZIP CRC entirely).
        checksums = header.get("checksums") or {}
        for name, array in arrays.items():
            expected = checksums.get(name)
            actual = zlib.crc32(np.ascontiguousarray(array).tobytes())
            if expected is None or int(expected) != actual:
                raise IndexArtifactError(
                    f"index artifact {path}: checksum mismatch for array "
                    f"{name!r} (expected {expected}, got {actual}) — "
                    f"the artifact is truncated or corrupt"
                )
        index = cls(db)
        fields = [str(ref) for ref in index._field_sizes]
        artifact_fields = header.get("fields") or []
        if artifact_fields != fields:
            raise IndexArtifactError(
                f"index artifact {path} covers a different field set: "
                + _field_mismatch(artifact_fields, fields)
            )
        indexed_rows = header.get("indexed_rows", {})
        deleted_rows = header.get("deleted_rows", {})
        for table in db.tables:
            if indexed_rows.get(table.name) != table.physical_count:
                raise IndexArtifactError(
                    f"index artifact {path} indexed "
                    f"{indexed_rows.get(table.name)} rows of {table.name!r}, "
                    f"database holds {table.physical_count}"
                )
            if deleted_rows.get(table.name, 0) != len(table.deletion_log):
                raise IndexArtifactError(
                    f"index artifact {path} processed "
                    f"{deleted_rows.get(table.name, 0)} deletions of "
                    f"{table.name!r}, database logged "
                    f"{len(table.deletion_log)}"
                )
        if header.get("source_version") != db.version:
            raise IndexArtifactError(
                f"index artifact {path} was built at database version "
                f"{header.get('source_version')}, database is at {db.version}"
            )
        snapshot = ColumnarPostings.from_arrays(arrays, tuple(index._field_sizes))
        index._snapshot = snapshot
        index._mmapped = mmap
        index._field_sizes = dict(
            zip(snapshot.fields, (int(s) for s in snapshot.field_sizes))
        )
        index._field_tokens = dict(
            zip(snapshot.fields, (int(t) for t in snapshot.field_tokens))
        )
        index._indexed_rows = {name: int(n) for name, n in indexed_rows.items()}
        index._indexed_deletions = {
            table.name: int(deleted_rows.get(table.name, 0))
            for table in db.tables
        }
        index._built_version = int(header["source_version"])
        index.generation = int(header.get("generation", 0))
        # The dicts are rebuilt from the snapshot only if a later
        # mutation needs appending.
        index._postings_hydrated = False
        return index

    @staticmethod
    def peek_generation(path: str | Path) -> int | None:
        """The mutation generation stamped into the artifact at *path*.

        A tolerant header-only read (no array payload touched): recovery
        uses it to decide how far back in the journal replay must start.
        Any unreadable, missing or pre-v2 artifact answers ``None`` —
        the caller then replays from the beginning.
        """
        try:
            with zipfile.ZipFile(path) as archive:
                with archive.open("header.npy") as member:
                    header = json.loads(
                        str(np.lib.format.read_array(member, allow_pickle=False))
                    )
            generation = header.get("generation")
            return None if generation is None else int(generation)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
            return None

    @classmethod
    def load_or_build(
        cls,
        path: str | Path,
        db: Database,
        mmap: bool = False,
        readonly: bool = False,
    ) -> "FullTextIndex":
        """Load the artifact at *path* if it matches *db*, else build and
        (re)write it — the warm-process entry point and what CI's cached
        index step calls.

        ``readonly=True`` opens the artifact without ever touching it: a
        stale or missing artifact raises :class:`IndexArtifactError`
        instead of being rebuilt and rewritten. That is the contract
        preforked serving workers need — N workers racing to "repair"
        one shared artifact file would corrupt each other's reads; only
        the parent (readonly off) builds, exactly once, before forking.

        ``mmap=True`` maps the snapshot arrays from the artifact file
        (see :meth:`load`); combined with the build path, a freshly
        built artifact is re-opened mapped so the returned index serves
        from shared pages rather than the private build-time heap.
        """
        artifact = Path(path)
        stale: IndexArtifactError | None = None
        # Read-only openers retry briefly: an unreadable artifact can be a
        # sibling process mid-rewrite, which resolves itself in tens of
        # milliseconds — jittered-exponential so racing workers decorrelate.
        schedule = RetryPolicy(attempts=3, base_delay_s=0.05, max_delay_s=0.2)
        for delay in itertools.chain(schedule.delays(), (None,)):
            if artifact.exists():
                try:
                    return cls.load(artifact, db, mmap=mmap)
                except IndexArtifactError as exc:
                    stale = exc
            if not readonly or delay is None:
                break
            time.sleep(delay)
        if readonly:
            raise IndexArtifactError(
                f"index artifact {artifact} unusable in read-only mode "
                f"({stale if stale is not None else 'no artifact present'})"
            )
        index = cls(db)
        index.warm()
        index.save(artifact)
        if mmap:
            try:
                return cls.load(artifact, db, mmap=True)
            except IndexArtifactError:
                # A racing writer replaced the file between our save and
                # re-open; the in-heap build we just made is still correct.
                return index
        return index

    def __repr__(self) -> str:
        return (
            f"FullTextIndex(fields={self._n_fields}, "
            f"built_version={self._built_version})"
        )
