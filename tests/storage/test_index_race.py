"""Lazy join-index builds racing batched writes on the memory backend.

The executor builds a table's column index the first time a join probes
it (``Table.ensure_index``), from whatever thread runs the query, while a
writer may be appending or tombstoning rows and updating the indexes
already built. Both sides hold the table's index lock, so no writer
walks the index map while a build publishes into it, and no build
publishes an index that misses a row appended during its scan or keeps
a row tombstoned during it.

The test forces frequent thread switches, runs one writer (``add_rows``
and ``delete_rows`` batches) against two readers whose index-join
queries build a fresh index per column, and checks that no thread
raised, that the live-row view is current, and that every built index
equals one rebuilt from the final rows.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict

from repro.db import Column, Database, Schema, TableSchema
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery, TableRef
from repro.db.types import DataType
from repro.storage import MemoryBackend

_NODES = 40
_EDGES = 3000
_ROUNDS = 4


def _database() -> Database:
    db = Database(
        Schema(
            tables=[
                TableSchema(
                    "node",
                    (
                        Column("id", DataType.INTEGER, nullable=False),
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
                    ),
                    ("id",),
                ),
            ],
            name="race",
        )
    )
    for key in range(_NODES):
        db.insert("node", {"id": key, "word": "hub" if key % 10 == 0 else "leaf"})
    for key in range(_EDGES):
        db.insert("edge", {"id": key, "src": key % _NODES, "dst": key % 7, "k": key % 5})
    return db


def _queries() -> list[SelectQuery]:
    """One query per ``edge`` column, each attaching unfiltered ``edge``
    to a few ``hub`` nodes — an index nested loop on that column."""
    hub = Predicate("node", "word", Comparison.CONTAINS, "hub")
    return [
        SelectQuery(
            tables=(TableRef.of("node"), TableRef.of("edge")),
            joins=(JoinCondition("edge", column, "node", "id"),),
            predicates=(hub,),
            projection=(("edge", "id"),),
        )
        for column in ("src", "dst", "k", "id")
    ]


def _rebuilt(db: Database, table_name: str, column: str) -> dict:
    table = db.table(table_name)
    position = table.column_position(column)
    fresh: dict = defaultdict(list)
    for row_position, row in enumerate(table.storage_rows):
        if not table.is_deleted(row_position):
            fresh[row[position]].append(row_position)
    return dict(fresh)


def test_index_builds_racing_writes_stay_exact():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(_ROUNDS):
            db = _database()
            backend = MemoryBackend(db)
            backend.fulltext.warm()
            errors: list[BaseException] = []
            done = threading.Event()

            def write() -> None:
                try:
                    next_id = _EDGES
                    for batch in range(30):
                        rows = [
                            {"id": next_id + i, "src": i % _NODES, "dst": i % 7, "k": i % 5}
                            for i in range(20)
                        ]
                        next_id += len(rows)
                        backend.add_rows("edge", rows)
                        backend.delete_rows("edge", [batch * 50 + i for i in range(10)])
                except Exception as error:  # reported after the join
                    errors.append(error)
                finally:
                    done.set()

            def read() -> None:
                try:
                    while not done.is_set():
                        for query in _queries():
                            backend.result_count(query)
                except Exception as error:  # reported after the join
                    errors.append(error)

            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            edge = db.table("edge")
            assert edge.deleted_count > 0
            assert edge.rows == [
                row
                for position, row in enumerate(edge.storage_rows)
                if not edge.is_deleted(position)
            ]
            for column in ("src", "dst", "k", "id"):
                built = {key: list(p) for key, p in edge.ensure_index(column).items() if p}
                assert built == _rebuilt(db, "edge", column), column
    finally:
        sys.setswitchinterval(previous)
