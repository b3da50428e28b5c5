"""Shared fixtures: small schemas, databases and engines used across tests."""

from __future__ import annotations

import os

import pytest

from repro.core import Quest
from repro.datasets import dblp, imdb, mondial
from repro.db import Column, Database, ForeignKey, Schema, TableSchema
from repro.db.types import DataType
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper, HiddenSourceWrapper

#: Storage backend the engine-level tests run on. CI sets
#: ``QUEST_TEST_BACKEND=sqlite`` in one matrix leg so the engine suite
#: (pipeline, caching, integration, eval, multi-source) exercises the
#: SQLite backend end to end. Build full-access wrappers for shared
#: read-only databases through :func:`backend_for` to honour it.
TEST_BACKEND = os.environ.get("QUEST_TEST_BACKEND", "memory")

#: Test modules that always run under the runtime lock-order detector
#: (the suites that exercise real cross-thread lock interleavings).
#: ``QUEST_LOCKWATCH=1`` extends it to every test; ``=0`` disables it.
_LOCKWATCH_MODULES = {"test_concurrent_search", "test_chaos"}
#: Test modules that install their own watcher (``lockwatch.install``
#: allows one at a time), so the fixture never installs one for them.
_OWN_LOCKWATCH_MODULES = {"test_lockwatch"}


@pytest.fixture(autouse=True)
def _lockwatch(request):
    """Watch repro lock acquisitions for order inversions (see
    ``repro.analysis.lockwatch``); fail the test on any violation.

    Fresh watcher per test: the acquired-after graph is cumulative, so
    sharing one would let an edge from test A convict an unrelated
    ordering in test B. Only locks created during the test are watched —
    session-scoped fixtures built earlier keep raw locks, which is fine:
    the suites this targets build their engines per-test.
    """
    env = os.environ.get("QUEST_LOCKWATCH", "")
    module_name = getattr(request.module, "__name__", "").rpartition(".")[2]
    enabled = (
        env != "0"
        and module_name not in _OWN_LOCKWATCH_MODULES
        and (env == "1" or module_name in _LOCKWATCH_MODULES)
    )
    if not enabled:
        yield
        return
    from repro.analysis import lockwatch

    watcher = lockwatch.LockWatcher()
    lockwatch.install(watcher)
    try:
        yield
    finally:
        lockwatch.uninstall()
    problems = watcher.violations()
    if problems:
        details = "\n\n".join(
            f"[{v.kind}] {v.message}\n{v.stack}" for v in problems
        )
        pytest.fail(
            f"lockwatch detected {len(problems)} lock-order violation"
            f"{'' if len(problems) == 1 else 's'}:\n\n{details}"
        )


def backend_for(db: Database):
    """The configured test backend, freshly loaded with *db*'s contents."""
    return create_backend(TEST_BACKEND, db)


def build_mini_schema() -> Schema:
    """A 3-table movie schema used by most unit tests."""
    return Schema(
        tables=[
            TableSchema(
                "person",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("name", DataType.TEXT, nullable=False),
                ),
                ("id",),
                synonyms=("people", "director"),
            ),
            TableSchema(
                "genre",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("label", DataType.TEXT, nullable=False),
                ),
                ("id",),
            ),
            TableSchema(
                "movie",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("title", DataType.TEXT, nullable=False),
                    Column("year", DataType.INTEGER, pattern=r"(19|20)\d\d"),
                    Column("director_id", DataType.INTEGER, nullable=False),
                    Column("genre_id", DataType.INTEGER, nullable=False),
                ),
                ("id",),
                synonyms=("film",),
            ),
        ],
        foreign_keys=[
            ForeignKey("movie", "director_id", "person", "id"),
            ForeignKey("movie", "genre_id", "genre", "id"),
        ],
        name="mini",
    )


def build_mini_db() -> Database:
    """The mini schema populated with a handful of well-known rows."""
    db = Database(build_mini_schema())
    db.insert("person", {"id": 1, "name": "Stanley Kubrick"})
    db.insert("person", {"id": 2, "name": "Ridley Scott"})
    db.insert("person", {"id": 3, "name": "Agnes Varda"})
    db.insert("genre", {"id": 1, "label": "scifi"})
    db.insert("genre", {"id": 2, "label": "horror"})
    db.insert("genre", {"id": 3, "label": "documentary"})
    rows = [
        (1, "A Space Odyssey", 1968, 1, 1),
        (2, "The Shining", 1980, 1, 2),
        (3, "Alien", 1979, 2, 1),
        (4, "Blade Runner", 1982, 2, 1),
        (5, "The Gleaners", 2000, 3, 3),
    ]
    for row in rows:
        db.insert("movie", row)
    db.check_integrity()
    return db


@pytest.fixture()
def mini_schema() -> Schema:
    return build_mini_schema()


@pytest.fixture()
def mini_db() -> Database:
    return build_mini_db()


@pytest.fixture()
def mini_wrapper(mini_db: Database) -> FullAccessWrapper:
    return FullAccessWrapper(backend_for(mini_db))


@pytest.fixture()
def mini_engine(mini_wrapper: FullAccessWrapper) -> Quest:
    return Quest(mini_wrapper)


@pytest.fixture()
def mini_hidden(mini_db: Database) -> HiddenSourceWrapper:
    return HiddenSourceWrapper(mini_db.schema, remote_db=mini_db)


# -- session-scoped generated datasets (built once, never mutated) -----------


@pytest.fixture(scope="session")
def imdb_db() -> Database:
    return imdb.generate(movies=80, seed=7)


@pytest.fixture(scope="session")
def imdb_workload(imdb_db: Database):
    return imdb.workload(imdb_db, queries_per_kind=2, seed=11)


@pytest.fixture(scope="session")
def dblp_db() -> Database:
    return dblp.generate(papers=100, seed=13)


@pytest.fixture(scope="session")
def mondial_db() -> Database:
    return mondial.generate(countries=15, seed=23)
