"""Counts and rows under bound values and the skipped exact check.

The SQLite backend renders each query shape once and binds every value
(keywords, constants, the posting lists' term/table/column) as a
parameter; both backends skip the exact CONTAINS check where a
one-token keyword's posting list already decides it. The oracle is
``tests/oracle.py::execute_reference`` (scans and whole-relation hash
joins, ``contains_match`` on every row), re-run after every batched
``add_rows``/``delete_rows``.

The keywords are drawn to break each of those steps:
- quotes and apostrophes (``O'Brien``, ``say "hi"``) for the binding;
- multi-token phrases and repeated tokens, which the postings only narrow;
- punctuation-only keywords, which match nothing;
- boolean columns, matched through their ``True``/``False`` rendering;
- a single-token keyword on a column the backend keeps out of its
  narrowing, where the exact check must still run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, Schema, TableSchema
from repro.db.query import (
    Comparison,
    JoinCondition,
    Predicate,
    SelectQuery,
    TableRef,
)
from repro.db.schema import ColumnRef, ForeignKey
from repro.db.types import DataType
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from tests.oracle import execute_reference

#: The column both "partial" backends keep out of their narrowing.
_UNNARROWED = "nick"

_WORDS = ["alpha", "beta", "O'Brien", 'say "hi"', "o", "brien", "true", "7"]

_KEYWORDS = st.one_of(
    st.sampled_from(
        [
            "alpha",
            "ALPHA",
            "beta",
            "O'Brien",
            "o'brien",
            "brien",
            "'",
            '"hi"',
            'say "hi"',
            "alpha beta",
            "beta alpha",
            "alpha alpha",
            "o brien o",
            "--",
            "?!",
            "true",
            "False",
            "7",
            "absent",
        ]
    ),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
)


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "person",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("name", DataType.TEXT),
                    Column(_UNNARROWED, DataType.TEXT),
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
        name="shapes",
    )


_TEXT = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WORDS + ["alpha-beta", "o'brien."]), max_size=4).map(
        " ".join
    ),
)
_PERSON = st.fixed_dictionaries(
    {
        "name": _TEXT,
        _UNNARROWED: _TEXT,
        "active": st.one_of(st.none(), st.booleans()),
        "born": st.one_of(st.none(), st.sampled_from([7, 1994, 0])),
    }
)
_NOTE = st.fixed_dictionaries(
    {"person_id": st.one_of(st.none(), st.integers(0, 7)), "body": _TEXT}
)


class _PartialMemory(MemoryBackend):
    """Postings declined for one column: its CONTAINS predicates scan."""

    def _postings(self, token: str, ref: ColumnRef) -> list[int] | None:
        if ref.column == _UNNARROWED:
            return None
        return super()._postings(token, ref)


class _PartialSQLite(SQLiteBackend):
    """No narrowing for one column: its CONTAINS keeps ``QUEST_CONTAINS``."""

    def _narrow_contains(self, alias, table, column, keyword):
        if column == _UNNARROWED:
            return None
        return super()._narrow_contains(alias, table, column, keyword)


def _queries(keyword: str, other: str) -> list[SelectQuery]:
    person, note = TableRef.of("person"), TableRef.of("note")
    join = JoinCondition("note", "person_id", "person", "id")
    queries = [
        SelectQuery(
            tables=(person,),
            predicates=(Predicate("person", column, Comparison.CONTAINS, keyword),),
            projection=(("person", "id"), ("person", column)),
        )
        for column in ("name", _UNNARROWED, "active", "born")
    ]
    queries += [
        SelectQuery(
            tables=(person,),
            predicates=(
                Predicate("person", "name", Comparison.CONTAINS, keyword),
                Predicate("person", _UNNARROWED, Comparison.CONTAINS, other),
            ),
            projection=(("person", "id"),),
        ),
        SelectQuery(
            tables=(note, person),
            joins=(join,),
            predicates=(
                Predicate("note", "body", Comparison.CONTAINS, keyword),
                Predicate("person", "name", Comparison.CONTAINS, other),
            ),
            projection=(("person", "name"),),
        ),
        SelectQuery(
            tables=(person, note),
            joins=(join.reversed(),),
            predicates=(
                Predicate("person", "active", Comparison.CONTAINS, keyword),
                Predicate("note", "body", Comparison.LIKE, f"%{other}%"),
            ),
        ),
        SelectQuery(
            tables=(person,),
            predicates=(
                Predicate("person", "born", Comparison.GE, 7),
                Predicate("person", "name", Comparison.CONTAINS, keyword),
            ),
            projection=(("person", "name"),),
            distinct=False,
        ),
        SelectQuery(
            tables=(person,),
            predicates=(
                Predicate("person", "active", Comparison.EQ, True),
                Predicate("person", _UNNARROWED, Comparison.CONTAINS, keyword),
            ),
            projection=(("person", "id"),),
        ),
    ]
    return queries


@st.composite
def _scenarios(draw):
    people = draw(st.lists(_PERSON, max_size=8))
    notes = draw(st.lists(_NOTE, max_size=6))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("person"), st.lists(_PERSON, min_size=1, max_size=3)),
                st.tuples(st.just("note"), st.lists(_NOTE, min_size=1, max_size=2)),
                st.tuples(
                    st.just("delete"),
                    st.tuples(
                        st.sampled_from(["person", "note"]),
                        st.lists(st.integers(0, 11), min_size=1, max_size=2),
                    ),
                ),
            ),
            max_size=3,
        )
    )
    keywords = draw(st.lists(_KEYWORDS, min_size=1, max_size=2))
    return people, notes, ops, keywords


def _check(db: Database, backends, keywords: list[str]) -> None:
    for keyword in keywords:
        for query in _queries(keyword, keywords[0]):
            oracle = execute_reference(db, query)
            for backend in backends:
                count = backend.result_count(query)
                assert count == len(oracle), (backend.name, query)
                rows = backend.execute(query).rows
                if backend.name == "memory":
                    assert rows == oracle.rows, query
                else:
                    assert sorted(rows, key=repr) == sorted(oracle.rows, key=repr), query


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
def test_counts_and_rows_match_the_reference(scenario):
    people, notes, ops, keywords = scenario
    ids = {"person": 0, "note": 0}

    def keyed(table: str, values: dict) -> dict:
        row = {"id": ids[table], **values}
        ids[table] += 1
        return row

    db = Database(_schema())
    for values in people:
        db.insert("person", keyed("person", values))
    for values in notes:
        db.insert("note", keyed("note", values))
    memory = MemoryBackend(db)
    partial_memory = _PartialMemory(db)
    sqlite = SQLiteBackend.from_database(db)
    partial_sqlite = _PartialSQLite.from_database(db)
    # ``memory`` writes into ``db``; the other memory backend reads it.
    writers = (memory, sqlite, partial_sqlite)
    backends = (memory, partial_memory, sqlite, partial_sqlite)
    _check(db, backends, keywords)
    for op, payload in ops:
        if op == "delete":
            table, keys = payload
            deleted = {backend.delete_rows(table, [(key,) for key in keys]) for backend in writers}
            assert len(deleted) == 1
        else:
            rows = [keyed(op, values) for values in payload]
            for backend in writers:
                backend.add_rows(op, rows)
        _check(db, backends, keywords)
    sqlite.close()
    partial_sqlite.close()


def test_queries_of_one_shape_share_one_statement():
    """Keywords and constants are bound: one rendered text per shape."""
    db = Database(_schema())
    db.insert("person", {"id": 0, "name": "alpha beta", "born": 7})
    sqlite = SQLiteBackend.from_database(db)

    def query(keyword, born=7):
        return SelectQuery(
            tables=(TableRef.of("person"),),
            predicates=(
                Predicate("person", "name", Comparison.CONTAINS, keyword),
                Predicate("person", "born", Comparison.EQ, born),
            ),
            projection=(("person", "id"),),
        )

    statements = {
        sqlite._statement(query(keyword, born))[0].select
        for keyword, born in (("alpha", 7), ("beta", 0), ("Brien", 1994))
    }
    assert len(statements) == 1
    (one_token,) = statements
    assert "QUEST_CONTAINS" not in one_token
    phrase, params = sqlite._statement(query("O'Brien"))
    assert phrase.select != one_token and "QUEST_CONTAINS" in phrase.select
    assert "'" not in phrase.select.replace("'True'", "").replace("'False'", "")
    assert params == ["o", "person", "name", "brien", "person", "name", "O'Brien", 7]
    counts = [sqlite.result_count(query(k)) for k in ("alpha", "beta alpha", "alpha beta")]
    assert counts == [1, 0, 1]
    assert sqlite._shapes.stats.misses == 2
    sqlite.close()
