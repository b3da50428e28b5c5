"""Index nested-loop joins must equal whole-relation hash joins.

The memory executor attaches an occurrence without local predicates by
probing the column index its table maintains, once per partial tuple,
whenever there are fewer partial tuples than the occurrence has rows; it
skips every join after the partial tuples run out; and the memory
backend's ``result_count`` counts DISTINCT and LIMIT results without
building rows. The oracle is :func:`tests.oracle.execute_reference`:
scans, a hash build over every joined relation, no early stop.

Hypothesis draws small ``node``/``edge`` tables whose join columns repeat
and hold NULLs, and queries over up to three occurrences (``node`` twice,
as a self-join) with one- and two-condition joins, cycles, residual
conditions, disconnected FROM clauses, predicates on either
side (some matching nothing, so the start occurrence is empty), DISTINCT
and LIMIT. Each query runs once to build the indexes, then again after
rows are inserted behind the backend, added with ``add_rows`` and
deleted with ``delete_rows``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, Schema, TableSchema
from repro.db import executor
from repro.db.executor import execute, result_count
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery, TableRef
from repro.db.schema import ForeignKey
from repro.db.types import DataType
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from tests.oracle import execute_reference

_WORDS = ["red", "blue", "green"]


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "node",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("k", DataType.INTEGER),
                    Column("j", DataType.INTEGER),
                    Column("word", DataType.TEXT),
                ),
                ("id",),
            ),
            TableSchema(
                "edge",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("src", DataType.INTEGER),
                    Column("dst", DataType.INTEGER),
                    Column("k", DataType.INTEGER),
                    Column("word", DataType.TEXT),
                ),
                ("id",),
            ),
        ],
        foreign_keys=[
            ForeignKey("edge", "src", "node", "id"),
            ForeignKey("edge", "dst", "node", "id"),
        ],
        name="joins",
    )


#: Join-column values: few, so keys repeat, and NULL among them.
_KEY = st.one_of(st.none(), st.integers(0, 2))
_WORD = st.one_of(st.none(), st.sampled_from(_WORDS))
_NODE = st.fixed_dictionaries({"k": _KEY, "j": _KEY, "word": _WORD})
_EDGE = st.fixed_dictionaries({"src": _KEY, "dst": _KEY, "k": _KEY, "word": _WORD})

#: Occurrences: ``n1`` and ``n2`` are both ``node`` (a self-join).
_TABLE_OF = {"n1": "node", "e": "edge", "n2": "node"}
_COLUMNS = {"node": ("id", "k", "j", "word"), "edge": ("id", "src", "dst", "k", "word")}

#: Candidate join conditions. ``e``-``n1`` and ``e``-``n2`` each have a
#: second condition (two-condition joins); ``n1.j = n2.j`` closes the
#: ``n1``-``e``-``n2`` path into a cycle, which the executor attaches as
#: a two-condition join. A condition within one occurrence is left over
#: once every occurrence is bound: a residual condition.
_JOINS = (
    JoinCondition("e", "src", "n1", "id"),
    JoinCondition("n1", "k", "e", "k"),
    JoinCondition("n2", "id", "e", "dst"),
    JoinCondition("e", "k", "n2", "k"),
    JoinCondition("n1", "j", "n2", "j"),
    JoinCondition("n2", "k", "n1", "id"),
    JoinCondition("n1", "k", "n1", "j"),
    JoinCondition("e", "src", "e", "dst"),
)


def _predicates(alias: str) -> st.SearchStrategy[Predicate]:
    return st.one_of(
        st.builds(
            Predicate,
            st.just(alias),
            st.just("word"),
            st.just(Comparison.CONTAINS),
            st.sampled_from(_WORDS + ["absent"]),
        ),
        st.builds(
            Predicate, st.just(alias), st.just("k"), st.just(Comparison.EQ), st.integers(0, 5)
        ),
        st.builds(
            Predicate, st.just(alias), st.just("id"), st.just(Comparison.GE), st.integers(0, 6)
        ),
    )


@st.composite
def _queries(draw) -> SelectQuery:
    aliases = draw(st.lists(st.sampled_from(list(_TABLE_OF)), min_size=1, max_size=3, unique=True))
    joins = draw(
        st.lists(
            st.sampled_from(
                [j for j in _JOINS if j.left_alias in aliases and j.right_alias in aliases]
                or [None]
            ),
            unique=True,
            max_size=4,
        )
    )
    predicates = draw(
        st.lists(st.sampled_from(aliases).flatmap(_predicates), max_size=1)
    )
    targets = [(alias, column) for alias in aliases for column in _COLUMNS[_TABLE_OF[alias]]]
    projection = draw(st.lists(st.sampled_from(targets), max_size=3, unique=True))
    return SelectQuery(
        tables=tuple(TableRef.of(_TABLE_OF[alias], alias) for alias in aliases),
        joins=tuple(j for j in joins if j is not None),
        predicates=tuple(predicates),
        projection=tuple(projection),
        distinct=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(1, 3))),
    )


@st.composite
def _scenarios(draw):
    nodes = draw(st.lists(_NODE, min_size=2, max_size=6))
    edges = draw(st.lists(_EDGE, min_size=3, max_size=12))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.sampled_from(["node", "edge"])),
                st.tuples(st.just("add_rows"), st.sampled_from(["node", "edge"])),
                st.tuples(st.just("delete_rows"), st.sampled_from(["node", "edge"])),
            ),
            max_size=5,
        )
    )
    values = draw(st.lists(st.tuples(_NODE, _EDGE), min_size=3, max_size=3))
    victims = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    queries = draw(st.lists(_queries(), min_size=4, max_size=8))
    return nodes, edges, ops, values, victims, queries


def _assert_matches_reference(db: Database, memory: MemoryBackend, query: SelectQuery) -> None:
    want = execute_reference(db, query)
    for got in (execute(db, query), memory.execute(query)):
        assert got.columns == want.columns, query
        assert got.rows == want.rows, query
    assert result_count(db, query) == len(want), query
    assert memory.result_count(query) == len(want), query


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
def test_index_joins_match_hash_join_reference(scenario):
    nodes, edges, ops, values, victims, queries = scenario
    next_id = {"node": 0, "edge": 0}

    def fresh(table: str, row: dict) -> dict:
        next_id[table] += 1
        return {"id": next_id[table] - 1, **row}

    db = Database(_schema())
    for row in nodes:
        db.insert("node", fresh("node", row))
    for row in edges:
        db.insert("edge", fresh("edge", row))
    memory = MemoryBackend(db)
    for query in queries:  # builds the column indexes the joins probe
        _assert_matches_reference(db, memory, query)

    for step, (op, table) in enumerate(ops):
        node, edge = values[step % 3]
        row = node if table == "node" else edge
        if op == "insert":  # behind the backend: the table keeps its indexes
            db.insert(table, fresh(table, row))
        elif op == "add_rows":
            memory.add_rows(table, [fresh(table, row), fresh(table, row)])
        else:
            memory.delete_rows(table, victims)
    for query in queries:
        _assert_matches_reference(db, memory, query)


# -- the paths the property covers, pinned on fixed data ------------------------


def _chain_db() -> Database:
    db = Database(_schema())
    for key in range(6):
        db.insert("node", {"id": key, "k": key % 2, "j": key % 3, "word": _WORDS[key % 3]})
    for key in range(9):
        db.insert("edge", {"id": key, "src": key % 6, "dst": (key + 1) % 6, "k": key % 2})
    return db


def test_unfiltered_occurrence_is_probed_not_hashed():
    """One ``red`` node, six unfiltered edges: the edge side is probed
    (composite: ``src`` through the index, ``k`` on the fetched row)."""
    db = _chain_db()
    query = SelectQuery(
        tables=(TableRef.of("node", "n1"), TableRef.of("edge", "e")),
        joins=(JoinCondition("e", "src", "n1", "id"), JoinCondition("n1", "k", "e", "k")),
        predicates=(Predicate("n1", "word", Comparison.CONTAINS, "red"),),
        projection=(("e", "id"),),
    )
    with mock.patch.object(executor, "_hash_join", side_effect=AssertionError):
        got = execute(db, query)
    assert got.rows == execute_reference(db, query).rows == [(0,), (6,), (3,)]


def test_null_keys_match_nothing_in_index_joins():
    """NULL = NULL is not true, on the probed condition or a checked one."""
    db = Database(_schema())
    db.insert("node", {"id": 0, "k": None, "word": "red"})
    db.insert("node", {"id": 1, "k": 1, "word": "blue"})
    for key, src in enumerate((0, 0, None, 1)):
        db.insert("edge", {"id": key, "src": src, "k": None})
    red = Predicate("n1", "word", Comparison.CONTAINS, "red")
    for joins in (
        (JoinCondition("n1", "k", "e", "k"),),
        (JoinCondition("e", "src", "n1", "id"), JoinCondition("n1", "k", "e", "k")),
    ):
        query = SelectQuery(
            tables=(TableRef.of("node", "n1"), TableRef.of("edge", "e")),
            joins=joins,
            predicates=(red,),
            projection=(("e", "id"),),
        )
        with mock.patch.object(executor, "_hash_join", side_effect=AssertionError):
            assert execute(db, query).rows == []
        assert execute_reference(db, query).rows == []


def test_empty_partials_skip_the_remaining_joins():
    db = _chain_db()
    query = SelectQuery(
        tables=(TableRef.of("node", "n1"), TableRef.of("edge", "e"), TableRef.of("node", "n2")),
        joins=(JoinCondition("e", "src", "n1", "id"), JoinCondition("n2", "id", "e", "dst")),
        predicates=(Predicate("n1", "word", Comparison.CONTAINS, "absent"),),
        projection=(("n2", "word"),),
    )
    with mock.patch.object(
        executor, "_hash_join", side_effect=AssertionError
    ), mock.patch.object(executor, "_index_join", side_effect=AssertionError):
        assert execute(db, query).rows == []
        assert result_count(db, query) == 0
    assert execute(db, query).columns == ("n2.word",)


def test_limit_zero_returns_no_rows():
    """``LIMIT 0`` yields nothing, as it does on SQLite."""
    db = _chain_db()
    sqlite = SQLiteBackend.from_database(db)
    for distinct in (True, False):
        query = SelectQuery(
            tables=(TableRef.of("node"),), projection=(("node", "k"),), distinct=distinct, limit=0
        )
        assert execute(db, query).rows == sqlite.execute(query).rows == []
        assert result_count(db, query) == sqlite.result_count(query) == 0
    sqlite.close()
