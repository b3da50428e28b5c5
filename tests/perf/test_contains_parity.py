"""Index-driven CONTAINS must equal the per-row scan, on both backends.

Both storage backends narrow a CONTAINS predicate to the intersection of
its keyword tokens' posting lists before the exact per-row check: the
memory backend hands the executor the full-text index's
``matching_row_positions``, the SQLite backend puts ``_quest_pos IN
(posting list)`` conjuncts ahead of ``QUEST_CONTAINS``. The oracle here
is the bare executor (``execute(db, query)`` with no postings), which
calls :func:`contains_match` on every live row.

The narrowing is only sound where the index tokenises exactly the value
the exact check sees; a column the index does not cover that way must
scan. Two properties pin that rule down: every column's postings hold
exactly ``tokenize_value`` of the operand the exact check receives (on
SQLite, captured from ``QUEST_CONTAINS`` itself), and the executor scans
every column its posting lookup declines (returns ``None`` for), staying
equal to the oracle.

Hypothesis draws small tables over INTEGER/FLOAT/TEXT/BOOLEAN/DATE
columns (NULLs included) from a tiny vocabulary so tokens collide, then
mutates them after the indexes were built — rows inserted behind the
index (lazy refresh), batched ``add_rows`` (``_apply_add_rows``) and
tombstoning deletes — and queries a third memory backend attached to a
memory-mapped ``.npz`` artifact saved before the mutations.
"""

from __future__ import annotations

import tempfile
from datetime import date
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, Schema, TableSchema
from repro.db.executor import contains_match, execute
from repro.db.fulltext import tokenize_value
from repro.db.query import (
    Comparison,
    JoinCondition,
    Predicate,
    SelectQuery,
    TableRef,
)
from repro.db.schema import ColumnRef, ForeignKey
from repro.db.sqlgen import render_sql
from repro.db.types import DataType
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend

_WORDS = ["alpha", "beta", "Gamma", "42", "1994", "true", "x"]

_ITEM_COLUMNS = ("words", "num", "score", "flag", "day")


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "item",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("words", DataType.TEXT),
                    Column("num", DataType.INTEGER),
                    Column("score", DataType.FLOAT),
                    Column("flag", DataType.BOOLEAN),
                    Column("day", DataType.DATE),
                ),
                ("id",),
            ),
            TableSchema(
                "tag",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("item_id", DataType.INTEGER),
                    Column("label", DataType.TEXT),
                ),
                ("id",),
            ),
        ],
        foreign_keys=[ForeignKey("tag", "item_id", "item", "id")],
        name="contains",
    )


_TEXT = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_WORDS + ["alpha-beta", "x.42"]), max_size=4).map(
        " ".join
    ),
)
_ITEM_VALUES = st.fixed_dictionaries(
    {
        "words": _TEXT,
        "num": st.one_of(st.none(), st.sampled_from([0, 1, 42, 1994, -7])),
        "score": st.one_of(st.none(), st.sampled_from([0.0, 1.5, 42.0, -0.25])),
        "flag": st.one_of(st.none(), st.booleans()),
        "day": st.one_of(
            st.none(),
            st.sampled_from([date(1994, 1, 2), date(2001, 12, 31), date(1994, 5, 1)]),
        ),
    }
)
_TAG_VALUES = st.fixed_dictionaries(
    {"item_id": st.one_of(st.none(), st.integers(0, 9)), "label": _TEXT}
)

#: Keywords: single tokens of every column type's rendering, multi-token
#: and repeated-token phrases, punctuation-only (match nothing), case.
_KEYWORDS = st.one_of(
    st.sampled_from(
        _WORDS
        + [
            "ALPHA",
            "alpha beta",
            "beta alpha",
            "alpha alpha",
            "x 42",
            "false",
            "1",
            "5",
            "0",
            "42.0",
            "1.5",
            "1994-01",
            "01 02",
            "31",
            "--",
            "?!",
            "absent",
        ]
    ),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
)


@st.composite
def _scenarios(draw):
    items = draw(st.lists(_ITEM_VALUES, max_size=10))
    tags = draw(st.lists(_TAG_VALUES, max_size=8))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), _ITEM_VALUES),
                st.tuples(st.just("add_rows"), st.lists(_ITEM_VALUES, min_size=1, max_size=3)),
                st.tuples(st.just("add_tags"), st.lists(_TAG_VALUES, min_size=1, max_size=2)),
                st.tuples(st.just("delete"), st.integers(0, 14)),
                st.tuples(st.just("delete_tag"), st.integers(0, 9)),
            ),
            max_size=6,
        )
    )
    keywords = draw(st.lists(_KEYWORDS, min_size=1, max_size=3))
    return items, tags, ops, keywords


class _Ids:
    """Fresh primary keys per table."""

    def __init__(self) -> None:
        self.next = {"item": 0, "tag": 0}

    def row(self, table: str, values: dict) -> dict:
        row = {"id": self.next[table], **values}
        self.next[table] += 1
        return row


def _queries(keyword: str, other: str) -> list[SelectQuery]:
    """Single-alias CONTAINS per column, two on one alias, and a join."""
    item = TableRef.of("item")
    tag = TableRef.of("tag")
    queries = [
        SelectQuery(
            tables=(item,),
            predicates=(Predicate("item", column, Comparison.CONTAINS, keyword),),
            projection=(("item", "id"), ("item", column)),
        )
        for column in _ITEM_COLUMNS
    ]
    queries.append(
        SelectQuery(
            tables=(item,),
            predicates=(
                Predicate("item", "words", Comparison.CONTAINS, keyword),
                Predicate("item", "words", Comparison.CONTAINS, other),
            ),
            projection=(("item", "id"),),
        )
    )
    join = JoinCondition("tag", "item_id", "item", "id")
    queries.append(
        SelectQuery(
            tables=(tag, item),
            joins=(join,),
            predicates=(
                Predicate("tag", "label", Comparison.CONTAINS, keyword),
                Predicate("item", "words", Comparison.CONTAINS, other),
            ),
            projection=(("item", "words"),),
            distinct=True,
        )
    )
    queries.append(
        SelectQuery(
            tables=(item, tag),
            joins=(join.reversed(),),
            predicates=(Predicate("item", "day", Comparison.CONTAINS, keyword),),
            projection=(("tag", "id"), ("item", "id")),
            limit=3,
        )
    )
    return queries


def _apply(ops, ids: _Ids, db: Database, memory: MemoryBackend, sqlite: SQLiteBackend):
    for op, payload in ops:
        if op == "insert":
            # Behind the index's back: the memory index refreshes lazily.
            row = ids.row("item", payload)
            db.insert("item", row)
            sqlite.insert("item", row)
        elif op in ("add_rows", "add_tags"):
            table = "item" if op == "add_rows" else "tag"
            rows = [ids.row(table, values) for values in payload]
            memory.add_rows(table, rows)
            sqlite.add_rows(table, rows)
        else:
            table = "item" if op == "delete" else "tag"
            assert memory.delete_rows(table, [payload]) == sqlite.delete_rows(
                table, [payload]
            )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
def test_index_driven_contains_matches_scan(scenario):
    items, tags, ops, keywords = scenario
    ids = _Ids()
    db = Database(_schema())
    for values in items:
        db.insert("item", ids.row("item", values))
    for values in tags:
        db.insert("tag", ids.row("tag", values))
    memory = MemoryBackend(db)
    memory.fulltext.warm()
    sqlite = SQLiteBackend.from_database(db)
    with tempfile.TemporaryDirectory() as scratch:
        artifact = Path(scratch) / "index.npz"
        memory.save_index(artifact)
        mapped = MemoryBackend(db)
        mapped.load_index(artifact, mmap=True)
        assert mapped.fulltext.mmapped
        _apply(ops, ids, db, memory, sqlite)
        for keyword in keywords:
            for query in _queries(keyword, keywords[0]):
                oracle = execute(db, query)
                for backend in (memory, mapped):
                    assert backend.execute(query).rows == oracle.rows, query
                    assert backend.result_count(query) == len(oracle), query
                if query.limit is None:
                    assert sorted(sqlite.execute(query).rows, key=repr) == sorted(
                        oracle.rows, key=repr
                    ), query
                assert sqlite.result_count(query) == len(oracle), query
    sqlite.close()


# -- the fallback rule ---------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios(), covered=st.sets(st.sampled_from(_ITEM_COLUMNS + ("label",))))
def test_columns_without_postings_scan(scenario, covered):
    """A lookup that declines a column (``None``) leaves it to the scan."""
    items, tags, _ops, keywords = scenario
    ids = _Ids()
    db = Database(_schema())
    for values in items:
        db.insert("item", ids.row("item", values))
    for values in tags:
        db.insert("tag", ids.row("tag", values))
    memory = MemoryBackend(db)

    def partial(token: str, ref: ColumnRef) -> list[int] | None:
        if ref.column not in covered:
            return None
        return memory.fulltext.matching_row_positions(token, ref)

    for keyword in keywords:
        for query in _queries(keyword, keywords[0]):
            assert execute(db, query, partial).rows == execute(db, query).rows


def test_stale_postings_skip_tombstones():
    """Positions of rows deleted after the lookup was taken never resurface."""
    db = Database(_schema())
    for key in range(3):
        db.insert("item", {"id": key, "words": "alpha"})
    db.delete_rows("item", [1])
    query = SelectQuery(
        tables=(TableRef.of("item"),),
        predicates=(Predicate("item", "words", Comparison.CONTAINS, "alpha"),),
        projection=(("item", "id"),),
    )

    def stale(token: str, ref: ColumnRef) -> list[int]:
        return [0, 1, 2]

    assert execute(db, query, stale).rows == execute(db, query).rows == [(0,), (2,)]


def _posting_tokens(pairs) -> dict[int, set[str]]:
    tokens: dict[int, set[str]] = {}
    for term, position in pairs:
        tokens.setdefault(int(position), set()).add(term)
    return tokens


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario=_scenarios())
def test_postings_tokenise_what_the_exact_check_sees(scenario):
    """Every indexed column's postings are ``tokenize_value`` of the very
    operand the exact check receives, row by row, after mutations — the
    condition under which narrowing a column to its postings is exact."""
    items, tags, ops, _keywords = scenario
    ids = _Ids()
    db = Database(_schema())
    for values in items:
        db.insert("item", ids.row("item", values))
    for values in tags:
        db.insert("tag", ids.row("tag", values))
    memory = MemoryBackend(db)
    memory.fulltext.warm()
    sqlite = SQLiteBackend.from_database(db)
    _apply(ops, ids, db, memory, sqlite)

    seen: list[tuple[object, object]] = []

    def recording_contains(value, keyword):
        seen.append((value, keyword))
        return 1 if contains_match(value, keyword) else 0

    sqlite._connection.create_function("QUEST_CONTAINS", 2, recording_contains)
    schema = db.schema
    for table_schema in schema.tables:
        table = db.table(table_schema.name)
        for column in table_schema.columns:
            ref = ColumnRef(table.name, column.name)
            assert ref in memory.fulltext.fields()
            # Memory: the index's postings vs the stored Python values.
            value_at = table.column_position(column.name)
            terms = {
                token
                for row in table.rows
                for token in tokenize_value(row[value_at])
            }
            indexed = _posting_tokens(
                (term, position)
                for term in terms
                for position in memory.fulltext.matching_row_positions(term, ref)
            )
            expected = {
                position: set(tokenize_value(row[value_at]))
                for position, row in enumerate(table.storage_rows)
                if not table.is_deleted(position) and tokenize_value(row[value_at])
            }
            assert indexed == expected, ref
            # SQLite: the operand QUEST_CONTAINS receives for each row vs
            # that row's posting terms. Rendered without the narrowing,
            # the exact check scans every row in storage (= position)
            # order.
            seen.clear()
            probe = SelectQuery(
                tables=(TableRef.of(table.name),),
                predicates=(Predicate(table.name, column.name, Comparison.CONTAINS, "?"),),
                projection=((table.name, "id"),),
            )
            sql = render_sql(probe, dialect="sqlite", schema=schema)
            assert sqlite._connection.execute(sql).fetchall() == []
            stored = [
                position
                for (position,) in sqlite._connection.execute(
                    f'SELECT "_quest_pos" FROM "{table.name}" ORDER BY "_quest_pos"'
                )
            ]
            assert len(seen) == len(stored)
            operands = {
                position: set(tokenize_value(value))
                for position, (value, _keyword) in zip(stored, seen)
                if tokenize_value(value)
            }
            postings = _posting_tokens(
                sqlite._connection.execute(
                    'SELECT term, pos FROM "_quest_postings" WHERE tbl = ? AND col = ?',
                    (table.name, column.name),
                )
            )
            assert postings == operands, ref
    sqlite.close()
