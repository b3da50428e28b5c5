"""The backend's result-count cache answers exactly what the store would.

``StorageBackend.result_count`` serves a count from a per-backend LRU
keyed by the query and the backend version, and counts through the
uncached ``_count_rows`` hook on a miss (see :mod:`repro.storage.base`).
The oracle is ``tests/oracle.py::execute_reference``: scans and
whole-relation hash joins over the live rows, no cache, no postings.

Hypothesis interleaves batched ``add_rows``/``delete_rows`` with counts
on memory and SQLite, and checks every count against the oracle. Two
kinds of step put pressure on the cache's key:

- a *racing* count runs a write, and then a second reader's count of
  the same query, after its own count was taken but before it is
  stored — the clear-then-stale-put interleaving, made deterministic;
- every backend has a *sibling* of its own kind over translated rows
  (``alpha`` <-> ``beta``), written in lockstep, so the two reach equal
  versions while holding different data.

CONTAINS keywords include ``1``, ``1.0``, ``True`` and their string
spellings, which compare equal in Python but are different keywords;
a count step also counts its query with each of them in its place.
"""

from __future__ import annotations

import dataclasses
import os
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.db import Column, Database, Schema, TableSchema
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery, TableRef
from repro.db.schema import ForeignKey
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from tests.oracle import execute_reference

_WORDS = ["alpha", "beta", "true", "1", "0", "gamma"]
#: The sibling backends store every word translated through this map.
_SWAP = {"alpha": "beta", "beta": "alpha"}
#: Constants that compare equal in Python, and their string spellings.
_EQUAL = [True, 1, 1.0, "true", "1", "1.0"]
_KEYWORDS = ["alpha", "beta", "alpha beta", "--"] + _EQUAL


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "person",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("name", DataType.TEXT),
                    Column("active", DataType.BOOLEAN),
                    Column("born", DataType.INTEGER),
                ),
                ("id",),
            ),
            TableSchema(
                "note",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("person_id", DataType.INTEGER),
                    Column("body", DataType.TEXT),
                ),
                ("id",),
            ),
        ],
        foreign_keys=[ForeignKey("note", "person_id", "person", "id")],
        name="counts",
    )


def _translated(row: dict) -> dict:
    return {
        column: " ".join(_SWAP.get(word, word) for word in value.split(" "))
        if isinstance(value, str)
        else value
        for column, value in row.items()
    }


_TEXT = st.one_of(st.none(), st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join))
_ROWS = {
    "person": st.fixed_dictionaries(
        {
            "name": _TEXT,
            "active": st.one_of(st.none(), st.booleans()),
            "born": st.one_of(st.none(), st.sampled_from([0, 1, 2])),
        }
    ),
    "note": st.fixed_dictionaries(
        {"person_id": st.one_of(st.none(), st.integers(0, 5)), "body": _TEXT}
    ),
}


@st.composite
def _queries(draw) -> SelectQuery:
    """Person-only or person-note queries with CONTAINS and EQ constants."""
    joined = draw(st.booleans())
    tables = (TableRef.of("person"),) + ((TableRef.of("note"),) if joined else ())
    joins = (JoinCondition("note", "person_id", "person", "id"),) if joined else ()
    column = draw(st.sampled_from(["name", "active"] + (["body"] if joined else [])))
    alias = "note" if column == "body" else "person"
    predicates = [Predicate(alias, column, Comparison.CONTAINS, draw(st.sampled_from(_KEYWORDS)))]
    if draw(st.booleans()):
        predicates.append(
            Predicate("person", "born", Comparison.EQ, draw(st.sampled_from([1, True, 1.0, 2])))
        )
    projection = draw(st.sampled_from([(), (("person", "id"),), (("person", "born"),)]))
    return SelectQuery(
        tables=tables,
        joins=joins,
        predicates=tuple(predicates),
        projection=projection,
        distinct=draw(st.booleans()),
        limit=draw(st.sampled_from([None, 2])),
    )


def _with_keyword(query: SelectQuery, keyword) -> SelectQuery:
    """*query* with its CONTAINS keyword replaced (same shape)."""
    contains, *rest = query.predicates
    return dataclasses.replace(
        query, predicates=(dataclasses.replace(contains, value=keyword), *rest)
    )


_OPS = st.lists(
    st.one_of(
        *(
            st.tuples(st.just("add"), st.just(table), st.lists(rows, min_size=1, max_size=3))
            for table, rows in _ROWS.items()
        ),
        st.tuples(
            st.just("delete"),
            st.sampled_from(list(_ROWS)),
            st.lists(st.integers(0, 8), min_size=1, max_size=2),
        ),
        st.tuples(st.just("count"), _queries()),
        st.tuples(st.just("race"), _queries()),
    ),
    min_size=1,
    max_size=12,
)


class _Store:
    """One backend, its live reference rows and its next primary keys."""

    def __init__(self, kind: str, rows: dict, translate: bool) -> None:
        self.translate = translate
        self.db = Database(_schema())
        self.ids = {table: 0 for table in _ROWS}
        for table, batch in rows.items():
            for values in batch:
                self.db.insert(table, self._row(table, values))
        if kind == "memory":
            self.backend = MemoryBackend(self.db)
            self.writers = [self.backend]
        else:
            # SQLite copies the rows; the reference rows are written too.
            self.backend = SQLiteBackend.from_database(self.db)
            self.writers = [self.backend, MemoryBackend(self.db)]

    def _row(self, table: str, values: dict) -> dict:
        row = {"id": self.ids[table], **(_translated(values) if self.translate else values)}
        self.ids[table] += 1
        return row

    def add(self, table: str, batch: list) -> None:
        rows = [self._row(table, values) for values in batch]
        for writer in self.writers:
            writer.add_rows(table, rows)

    def delete(self, table: str, keys: list) -> None:
        for writer in self.writers:
            writer.delete_rows(table, [(key,) for key in keys])

    def add_match(self) -> None:
        """Add a person, and a note of theirs, matching most queries."""
        words = "alpha beta true 1 0"
        person = self.ids["person"]
        self.add("person", [{"name": words, "active": True, "born": 1}])
        self.add("note", [{"person_id": person, "body": words}])

    def want(self, query: SelectQuery) -> int:
        return len(execute_reference(self.db, query))


def _stores(rows: dict) -> list[_Store]:
    return [
        _Store(kind, rows, translate)
        for kind in ("memory", "sqlite")
        for translate in (False, True)
    ]


def _racing_count(store: _Store, query: SelectQuery, write) -> tuple[int, int, int]:
    """A count whose store read finishes before *write* and a second
    reader's count of *query*; returns (outer, before, after)."""
    backend = store.backend
    before = store.want(query)
    counted = backend._count_rows
    inner: list[int] = []

    def count_then_race(q):
        count = counted(q)
        backend._count_rows = counted
        write()
        inner.append(backend.result_count(q))
        return count

    backend._count_rows = count_then_race
    try:
        outer = backend.result_count(query)
    finally:
        backend.__dict__.pop("_count_rows", None)
    after = store.want(query)
    # A miss raced the write; a hit never reached the store.
    assert inner in ([after], [])
    return outer, before, after


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    rows=st.fixed_dictionaries({t: st.lists(r, max_size=4) for t, r in _ROWS.items()}),
    ops=_OPS,
)
def test_counts_match_the_oracle_under_interleaved_writes(rows, ops):
    stores = _stores(rows)
    try:
        for op, *args in ops:
            for store in stores:
                if op == "add":
                    store.add(*args)
                elif op == "delete":
                    store.delete(*args)
                elif op == "count":
                    (query,) = args
                    for variant in [query] + [_with_keyword(query, k) for k in _EQUAL]:
                        assert store.backend.result_count(variant) == store.want(variant)
                    assert store.backend.result_count(query) == store.want(query)
                else:
                    (query,) = args
                    outer, before, after = _racing_count(store, query, store.add_match)
                    assert outer in (before, after)
                    assert store.backend.result_count(query) == after
        # Each sibling pair reached one version over different rows.
        for pair in (stores[:2], stores[2:]):
            assert len({store.backend.version for store in pair}) == 1
    finally:
        for store in stores:
            store.backend.close()


# -- deterministic checks -----------------------------------------------------


_MINI = {
    "person": [
        {"name": "alpha beta", "active": True, "born": 1},
        {"name": "true 1", "active": False, "born": 2},
    ],
    "note": [{"person_id": 0, "body": "alpha"}, {"person_id": 1, "body": "1.0"}],
}


def _mini(kind: str) -> _Store:
    return _Store(kind, _MINI, translate=False)


def _contains(keyword) -> SelectQuery:
    return SelectQuery(
        tables=(TableRef.of("person"),),
        predicates=(Predicate("person", "name", Comparison.CONTAINS, keyword),),
    )


class _Reached:
    """Counts the calls that reach a backend's uncached ``_count_rows``."""

    def __init__(self, backend) -> None:
        self.calls = 0
        counted = backend._count_rows

        def count_rows(query):
            self.calls += 1
            return counted(query)

        backend._count_rows = count_rows


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    store = _mini(request.param)
    yield store
    store.backend.close()


def test_a_repeat_count_does_not_reach_the_store(store):
    reached = _Reached(store.backend)
    query = _contains("alpha")
    assert store.backend.result_count(query) == 1
    assert store.backend.result_count(query) == 1
    assert reached.calls == 1
    stats = store.backend.count_cache.stats
    assert (stats.hits, stats.misses) == (1, 1)


def test_a_write_in_between_reaches_the_store(store):
    reached = _Reached(store.backend)
    query = _contains("alpha")
    assert store.backend.result_count(query) == 1
    store.add("person", [{"name": "alpha"}])
    assert store.backend.result_count(query) == 2
    store.delete("person", [0])
    assert store.backend.result_count(query) == 1
    assert reached.calls == 3
    # Each write moved the version forward and emptied the cache.
    assert len(store.backend.count_cache) == 1


def test_equal_constants_of_different_types_are_counted_apart(store):
    counts = {repr(k): store.backend.result_count(_contains(k)) for k in (1, True, 1.0, "1")}
    assert counts == {"1": 1, "True": 1, "1.0": 0, "'1'": 1}
    assert store.backend.result_count(_contains(1.0)) == 0
    assert len(store.backend.count_cache) == 4


def test_a_failing_count_is_not_cached(store):
    reached = _Reached(store.backend)
    query = _contains("alpha")
    if store.backend.name == "sqlite":
        plan = faults.FaultPlan(seed=3).inject(
            "storage.query", kind="error", error=sqlite3.DatabaseError
        )
        with faults.injected(plan):
            with pytest.raises(ExecutionError):
                store.backend.result_count(query)
    else:
        counted = store.backend._count_rows

        def failing(q):
            counted(q)
            raise ExecutionError("injected")

        store.backend._count_rows = failing
        with pytest.raises(ExecutionError):
            store.backend.result_count(query)
        store.backend._count_rows = counted
    assert len(store.backend.count_cache) == 0
    assert store.backend.result_count(query) == 1
    assert len(store.backend.count_cache) == 1
    # The failed count and its retry both reached the store.
    assert reached.calls == 2


def test_a_type_mismatch_is_not_cached():
    store = _mini("sqlite")
    query = SelectQuery(
        tables=(TableRef.of("person"),),
        predicates=(Predicate("person", "born", Comparison.EQ, "1"),),
    )
    for _ in range(2):
        with pytest.raises(ExecutionError, match="type mismatch"):
            store.backend.result_count(query)
    assert len(store.backend.count_cache) == 0
    store.backend.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_forked_child_keeps_correct_counts(kind, tmp_path):
    store = _mini(kind)
    if kind == "sqlite":
        store.backend.close()
        store.backend = SQLiteBackend.from_database(store.db, path=str(tmp_path / "c.db"))
    queries = [_contains(k) for k in ("alpha", True, 1, "beta")]
    parent = [store.backend.result_count(q) for q in queries]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read_fd)
            reached = _Reached(store.backend)
            inherited = [store.backend.result_count(q) for q in queries]
            hits = reached.calls == 0
            store.backend.add_rows("person", [{"id": 9, "name": "alpha true"}])
            written = [store.backend.result_count(q) for q in queries]
            verdict = (
                inherited == parent
                and hits
                and written == [2, 2, 1, 1]
                and reached.calls == len(queries)
            )
            os.write(write_fd, b"ok" if verdict else repr((inherited, written)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    verdict = os.read(read_fd, 256)
    os.close(read_fd)
    _, wait_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(wait_status) == 0
    assert verdict == b"ok"
    # The child's write is its own (memory) or needs refresh() to be
    # seen here (a SQLite file written through another process).
    assert [store.backend.result_count(q) for q in queries] == parent
    if kind == "sqlite":
        store.backend.refresh()
        assert [store.backend.result_count(q) for q in queries] == [2, 2, 1, 1]
    store.backend.close()
