"""Tests for the database container and integrity checking."""

import sys
import threading

import pytest

from repro.db import ColumnRef, Database
from repro.db.table import MutationCounter, Table
from repro.errors import IntegrityError, UnknownTableError


class _LockCheckingCounter(MutationCounter):
    """A counter whose every write of ``value`` after construction must
    hold the counter's own lock."""

    @property
    def value(self) -> int:
        return self._value

    @value.setter
    def value(self, new: int) -> None:
        if hasattr(self, "_lock"):  # construction writes 0 before the lock exists
            assert self._lock.locked(), "MutationCounter.value written unlocked"
        self._value = new


class TestAccess:
    def test_table_lookup(self, mini_db):
        assert mini_db.table("movie").name == "movie"
        with pytest.raises(UnknownTableError):
            mini_db.table("nope")

    def test_contains(self, mini_db):
        assert "movie" in mini_db
        assert "nope" not in mini_db

    def test_total_rows(self, mini_db):
        assert mini_db.total_rows() == 3 + 3 + 5

    def test_column_values(self, mini_db):
        years = mini_db.column_values(ColumnRef("movie", "year"))
        assert 1968 in years and len(years) == 5


class TestIntegrity:
    def test_clean_database_passes(self, mini_db):
        mini_db.check_integrity()

    def test_dangling_fk_detected(self, mini_db):
        mini_db.insert(
            "movie",
            {"id": 99, "title": "Ghost", "year": 2000, "director_id": 42,
             "genre_id": 1},
        )
        with pytest.raises(IntegrityError) as excinfo:
            mini_db.check_integrity()
        assert "director_id" in str(excinfo.value)

    def test_null_fk_is_allowed(self, mini_schema):
        # year is nullable; FKs on nullable columns skip the check for NULL.
        db = Database(mini_schema)
        db.insert("person", {"id": 1, "name": "X"})
        db.insert("genre", {"id": 1, "label": "g"})
        db.insert(
            "movie",
            {"id": 1, "title": "T", "year": None, "director_id": 1, "genre_id": 1},
        )
        db.check_integrity()

    def test_insert_many(self, mini_schema):
        db = Database(mini_schema)
        count = db.insert_many(
            "person", [{"id": i, "name": f"P{i}"} for i in range(10)]
        )
        assert count == 10
        assert len(db.table("person")) == 10

    def test_repr_mentions_scale(self, mini_db):
        assert "tables=3" in repr(mini_db)


class TestVersion:
    def test_version_counts_every_mutation(self, mini_schema):
        db = Database(mini_schema)
        db.insert("person", {"id": 1, "name": "X"})
        db.insert_rows("genre", [{"id": 1, "label": "a"}, {"id": 2, "label": "b"}])
        db.delete_rows("genre", [1, 99])  # the absent key mutates nothing
        assert db.version == 4
        assert db.version == sum(table.version for table in db.tables)

    def test_every_counter_write_holds_the_lock(self, mini_schema):
        """Deterministic twin of the threaded test below: every table
        mutation advances the counter under its lock."""
        counter = _LockCheckingCounter()
        table = Table(mini_schema.table("genre"), counter=counter)
        table.insert((1, "a"))
        table.insert_many(iter([(2, "b"), (3, "c")]))
        table.insert_rows([{"id": 4, "label": "d"}])
        table.delete_rows([1, 99])
        assert counter.value == table.version == 5

    def test_concurrent_writers_lose_no_increment(self, mini_schema):
        """Two writers on different tables advance one shared counter: at
        quiescence it equals the sum of the table versions, and a reader
        polling it meanwhile never sees it go backwards."""
        db = Database(mini_schema)
        per_writer = 2000
        done = threading.Event()
        readings: list[int] = []

        def write(table: str) -> None:
            for i in range(per_writer):
                if i % 4 == 3:
                    db.delete_rows(table, [i - 1])
                else:
                    db.insert(table, (i, f"{table}{i}"))

        def read() -> None:
            while not done.is_set():
                readings.append(db.version)

        writers = [
            threading.Thread(target=write, args=(name,)) for name in ("person", "genre")
        ]
        reader = threading.Thread(target=read)
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(previous_interval)
        assert not any(thread.is_alive() for thread in (*writers, reader))
        assert db.version == sum(table.version for table in db.tables)
        assert db.version == 2 * per_writer
        assert readings == sorted(readings)
