"""CONTAINS is driven by the postings index: bounded work, indexed plans.

A count probe of the explain stage must call the exact CONTAINS check
(``QUEST_CONTAINS`` on SQLite, :func:`contains_match` in memory) only on
rows in the keyword tokens' posting lists — never once per table row
(dblp at ``papers=1000``, the explain-bound benchmark's data).
The bounds below are invocation counts, so they cannot flake on timing.
SQLite files built before the ``_quest_pos``/foreign-key indexes existed
still open and count identically; ``open()`` adds the indexes.
"""

from __future__ import annotations

import re

import pytest

from repro import FullAccessWrapper, Quest
from repro.datasets import dblp, mondial
from repro.db import executor
from repro.db.executor import contains_match
from repro.db.fulltext import tokenize_value
from repro.db.query import Comparison
from repro.db.schema import ColumnRef
from repro.storage import MemoryBackend
from repro.storage.sqlite import SQLiteBackend
from tests.oracle import reference_kernels


@pytest.fixture(scope="module")
def dblp_1000():
    db = dblp.generate(papers=1000)
    memory = MemoryBackend(db)
    sqlite = SQLiteBackend.from_database(db)
    engine = Quest(FullAccessWrapper(memory))
    queries = []
    for gold in list(dblp.workload(db, queries_per_kind=30))[:12]:
        queries.extend(e.query for e in engine.search(gold.text, 5))
    assert queries
    yield db, memory, sqlite, queries
    sqlite.close()


def _contains(query):
    return [p for p in query.predicates if p.op is Comparison.CONTAINS]


def _posting_bound(memory: MemoryBackend, query) -> int:
    """Sum over CONTAINS predicates of their shortest token posting list."""
    bound = 0
    for predicate in _contains(query):
        ref = ColumnRef(query.table_of(predicate.alias), predicate.column)
        bound += min(
            len(memory.fulltext.matching_row_positions(token, ref))
            for token in tokenize_value(str(predicate.value))
        )
    return bound


def test_exact_checks_bounded_by_postings(dblp_1000, monkeypatch):
    db, memory, sqlite, queries = dblp_1000
    sqlite_calls = 0

    def counting_udf(value, keyword):
        nonlocal sqlite_calls
        sqlite_calls += 1
        return 1 if contains_match(value, keyword) else 0

    sqlite._connection.create_function("QUEST_CONTAINS", 2, counting_udf)
    memory_calls = 0

    def counting_match(value, keyword):
        nonlocal memory_calls
        memory_calls += 1
        return contains_match(value, keyword)

    monkeypatch.setattr(executor, "contains_match", counting_match)
    checked = bounds = scanned = 0
    for query in queries:
        if not _contains(query):
            continue
        bound = _posting_bound(memory, query)
        sqlite_calls = memory_calls = 0
        assert sqlite.result_count(query) == memory.result_count(query)
        # Memory checks each candidate base row once. SQLite checks a
        # CONTAINS alias per joined row, so a posting row several driving
        # rows join to is checked once per such row: at most once per
        # CONTAINS alias of the query.
        aliases = len({p.alias for p in _contains(query)})
        assert memory_calls <= bound, (query, memory_calls, bound)
        assert sqlite_calls <= aliases * bound, (query, sqlite_calls, bound)
        checked += 1
        bounds += bound
        # What a per-row scan checks: every row of each CONTAINS table.
        scanned += sum(
            len(db.table(query.table_of(p.alias))) for p in _contains(query)
        )
    assert checked >= 10
    assert bounds * 10 < scanned, (bounds, scanned)


def test_plan_seeks_the_contains_alias_by_position(dblp_1000):
    _db, _memory, sqlite, queries = dblp_1000
    for query in queries:
        if not _contains(query):
            continue
        statement, params = sqlite._statement(query)
        plan = [
            row[-1]
            for row in sqlite._connection.execute(
                "EXPLAIN QUERY PLAN " + statement.select, params
            )
        ]
        # One CONTAINS alias drives the plan from its posting rows; any
        # other is reached by a join key and filtered by its postings.
        # None is scanned.
        seeks = []
        for predicate in _contains(query):
            alias = re.escape(predicate.alias)
            table = re.escape(query.table_of(predicate.alias))
            seeks.append(
                any(
                    re.match(
                        rf"SEARCH {table}( AS {alias})? USING INDEX "
                        rf"_quest_idx_{table}__quest_pos \(_quest_pos=\?\)",
                        line,
                    )
                    for line in plan
                )
            )
            assert not any(
                re.match(rf"SCAN {table}( AS {alias})?\b", line) for line in plan
            ), plan
        assert any(seeks), plan


@pytest.fixture(scope="module")
def dblp_count_shapes(dblp_1000):
    """One count per shape of the dblp gold pass, with its bound values.

    The explain stage's postings check is switched off (its reference
    twin), so every distinct query of the pass is counted, including
    those the check would skip as provably empty.
    """
    db, _memory, sqlite, _queries = dblp_1000
    engine = Quest(FullAccessWrapper(sqlite))
    shapes = {}
    counted = sqlite.result_count

    def first_of_each_shape(query):
        statement, params = sqlite._statement(query)
        shapes.setdefault(statement.count, (query, params))
        return counted(query)

    sqlite.result_count = first_of_each_shape
    try:
        with reference_kernels("repro.wrapper.full.FullAccessWrapper.has_postings"):
            for gold in dblp.workload(db, queries_per_kind=30):
                engine.search(gold.text, 10)
    finally:
        del sqlite.result_count
    return sqlite, shapes


def test_bound_count_shapes_keep_their_index_plans(dblp_count_shapes):
    """Binding the keywords as parameters leaves the planner its indexes:
    every CONTAINS alias of every count shape is sought through
    ``_quest_idx_<table>__quest_pos``, never scanned, and every posting
    list is read through the postings' key (term, tbl, col)."""
    sqlite, shapes = dblp_count_shapes
    assert len(shapes) >= 100
    guarded = 0
    for sql, (query, params) in shapes.items():
        plan = [
            row[-1]
            for row in sqlite._connection.execute("EXPLAIN QUERY PLAN " + sql, params)
        ]
        contains = _contains(query)
        if not contains:
            continue
        guarded += 1
        for predicate in contains:
            table = re.escape(query.table_of(predicate.alias))
            assert not any(
                re.match(rf"SCAN {table}( AS \w+)?$", line) for line in plan
            ), plan
        assert any(
            re.match(
                rf"SEARCH \w+( AS \w+)? USING INDEX _quest_idx_\w+__quest_pos "
                rf"\(_quest_pos=\?\)",
                line,
            )
            for line in plan
        ), plan
        postings = [line for line in plan if "_quest_postings" in line]
        assert postings and all(
            re.match(
                r"SEARCH _quest_postings USING COVERING INDEX \w+ "
                r"\(term=\? AND tbl=\? AND col=\?\)",
                line,
            )
            for line in postings
        ), plan
    assert guarded >= 100


def _quest_indexes(backend: SQLiteBackend) -> set[str]:
    return {
        name
        for (name,) in backend._connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
        if name.startswith("_quest_idx_")
    }


def test_file_built_without_indexes_opens_and_counts_identically(tmp_path):
    db = mondial.generate(countries=10, seed=29)
    memory = MemoryBackend(db)
    engine = Quest(FullAccessWrapper(memory))
    queries = [
        explanation.query
        for gold in mondial.workload(db, queries_per_kind=2, seed=31)
        for explanation in engine.search(gold.text)
    ]
    expected = [memory.result_count(query) for query in queries]
    assert queries and any(expected)

    path = str(tmp_path / "old.db")
    old = SQLiteBackend.from_database(db, path=path)
    indexes = _quest_indexes(old)
    assert any(name.endswith("__quest_pos") for name in indexes)
    # Make it a file as written before the indexes existed: the
    # posting-list narrowing alone must already count exactly.
    for name in indexes:
        old._connection.execute(f'DROP INDEX "{name}"')
    assert _quest_indexes(old) == set()
    assert [old.result_count(query) for query in queries] == expected
    old.close()

    reopened = SQLiteBackend.open(db.schema, path)
    assert _quest_indexes(reopened) == indexes
    assert [reopened.result_count(query) for query in queries] == expected
    reopened.close()
