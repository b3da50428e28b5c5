"""Tests for in-memory table storage and indexing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Column, Table, TableSchema
from repro.db.table import prepare_rows
from repro.db.types import DataType
from repro.errors import IntegrityError, UnknownColumnError


@pytest.fixture()
def table() -> Table:
    return Table(
        TableSchema(
            "movie",
            (
                Column("id", DataType.INTEGER, nullable=False),
                Column("title", DataType.TEXT, nullable=False),
                Column("year", DataType.INTEGER),
            ),
            ("id",),
        )
    )


class TestInsert:
    def test_mapping_insert(self, table):
        row = table.insert({"id": 1, "title": "Alien", "year": 1979})
        assert row == (1, "Alien", 1979)

    def test_positional_insert(self, table):
        assert table.insert((1, "Alien", 1979)) == (1, "Alien", 1979)

    def test_values_are_coerced(self, table):
        row = table.insert({"id": "7", "title": "X", "year": "1990"})
        assert row == (7, "X", 1990)

    def test_missing_nullable_defaults_to_null(self, table):
        row = table.insert({"id": 1, "title": "X"})
        assert row[2] is None

    def test_not_null_enforced(self, table):
        with pytest.raises(IntegrityError):
            table.insert({"id": 1, "title": None})

    def test_pk_may_not_be_null(self, table):
        with pytest.raises(IntegrityError):
            table.insert({"id": None, "title": "X"})

    def test_duplicate_pk_rejected(self, table):
        table.insert({"id": 1, "title": "X"})
        with pytest.raises(IntegrityError):
            table.insert({"id": 1, "title": "Y"})

    def test_unknown_column_rejected(self, table):
        with pytest.raises(UnknownColumnError):
            table.insert({"id": 1, "title": "X", "oops": 1})

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(IntegrityError):
            table.insert((1, "X"))

    def test_insert_many_counts(self, table):
        rows = table.insert_rows([{"id": i, "title": f"M{i}"} for i in range(5)])
        assert len(rows) == 5
        assert len(table) == 5


class TestLookup:
    def test_get_by_scalar_key(self, table):
        table.insert({"id": 1, "title": "Alien"})
        assert table.get(1) == (1, "Alien", None)

    def test_get_by_tuple_key(self, table):
        table.insert({"id": 1, "title": "Alien"})
        assert table.get((1,)) == (1, "Alien", None)

    def test_get_missing_returns_none(self, table):
        assert table.get(99) is None

    def test_column_values_in_row_order(self, table):
        for i in (3, 1, 2):
            table.insert({"id": i, "title": f"M{i}"})
        assert table.column_values("id") == [3, 1, 2]

    def test_distinct_values_excludes_null(self, table):
        table.insert({"id": 1, "title": "A", "year": 1980})
        table.insert({"id": 2, "title": "B", "year": None})
        table.insert({"id": 3, "title": "C", "year": 1980})
        assert table.distinct_values("year") == {1980}

    def test_secondary_index_lookup(self, table):
        table.insert({"id": 1, "title": "A", "year": 1980})
        table.insert({"id": 2, "title": "B", "year": 1980})
        table.insert({"id": 3, "title": "C", "year": 1990})
        assert len(table.lookup("year", 1980)) == 2
        assert table.lookup("year", 2000) == []

    def test_index_stays_fresh_after_insert(self, table):
        table.insert({"id": 1, "title": "A", "year": 1980})
        table.ensure_index("year")
        table.insert({"id": 2, "title": "B", "year": 1980})
        assert len(table.lookup("year", 1980)) == 2

    def test_unknown_column_position(self, table):
        with pytest.raises(UnknownColumnError):
            table.column_position("nope")


class TestCompositeKey:
    def test_composite_uniqueness(self):
        table = Table(
            TableSchema(
                "casting",
                (
                    Column("movie_id", DataType.INTEGER, nullable=False),
                    Column("person_id", DataType.INTEGER, nullable=False),
                ),
                ("movie_id", "person_id"),
            )
        )
        table.insert((1, 1))
        table.insert((1, 2))
        with pytest.raises(IntegrityError):
            table.insert((1, 1))
        assert table.get((1, 2)) == (1, 2)


@given(st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=50))
def test_pk_index_finds_every_inserted_row(keys):
    table = Table(
        TableSchema(
            "t",
            (Column("id", DataType.INTEGER, nullable=False),),
            ("id",),
        )
    )
    for key in keys:
        table.insert((key,))
    for key in keys:
        assert table.get(key) == (key,)
    assert len(table) == len(keys)


class TestTombstones:
    def _seeded(self, table):
        table.insert_rows(
            [
                {"id": 1, "title": "Alien", "year": 1979},
                {"id": 2, "title": "Aliens", "year": 1986},
                {"id": 3, "title": "Solaris", "year": 1972},
            ]
        )
        return table

    def test_delete_rows_tombstones_without_renumbering(self, table):
        table = self._seeded(table)
        assert table.delete_rows([(2,)]) == 1
        assert len(table) == 2
        assert table.physical_count == 3  # the physical slot survives
        assert table.deleted_count == 1
        assert table.deletion_log == [1]
        assert table.is_deleted(1) and not table.is_deleted(0)
        assert [row[0] for row in table.rows] == [1, 3]
        assert [row[0] for row in table.storage_rows] == [1, 2, 3]
        assert table.get(2) is None

    def test_delete_is_idempotent_and_skips_absent_keys(self, table):
        table = self._seeded(table)
        assert table.delete_rows([(2,), (2,), (99,)]) == 1
        assert table.delete_rows([(2,)]) == 0

    def test_scalar_keys_accepted(self, table):
        table = self._seeded(table)
        assert table.delete_rows([3]) == 1
        assert table.get(3) is None

    def test_deleted_key_can_be_reinserted_at_a_new_position(self, table):
        table = self._seeded(table)
        table.delete_rows([(1,)])
        table.insert({"id": 1, "title": "Alien (restored)", "year": 1979})
        assert table.get(1) == (1, "Alien (restored)", 1979)
        # The old physical slot stays tombstoned; the row lives at the end.
        assert table.physical_count == 4
        assert table.is_deleted(0)
        assert table.storage_rows[3][1] == "Alien (restored)"

    def test_secondary_index_ignores_tombstoned_rows(self, table):
        table = self._seeded(table)
        table.ensure_index("year")
        assert len(table.lookup("year", 1986)) == 1
        table.delete_rows([(2,)])
        assert table.lookup("year", 1986) == []

    def test_live_view_cached_per_version(self, table):
        table = self._seeded(table)
        table.delete_rows([(1,)])
        first = table.rows
        assert table.rows is first  # cached: same version, same list
        table.insert({"id": 4, "title": "Stalker", "year": 1979})
        assert table.rows is not first
        assert [row[0] for row in table.rows] == [2, 3, 4]


def _prepare(table, rows):
    return prepare_rows(table.schema, rows, lambda key: table.get(key) is not None)


class TestPrepareApplySplit:
    def test_prepare_validates_without_applying(self, table):
        normalised = _prepare(table, [{"id": 1, "title": "X", "year": None}])
        assert normalised == [(1, "X", None)]
        assert len(table) == 0  # nothing applied yet
        table.apply_prepared(normalised)
        assert table.get(1) == (1, "X", None)

    def test_prepare_rejects_batch_internal_duplicates(self, table):
        with pytest.raises(IntegrityError):
            _prepare(
                table,
                [
                    {"id": 1, "title": "A", "year": None},
                    {"id": 1, "title": "B", "year": None},
                ]
            )
        assert len(table) == 0  # all-or-nothing: the valid prefix too

    def test_prepare_rejects_stored_duplicates(self, table):
        table.insert({"id": 1, "title": "A", "year": None})
        with pytest.raises(IntegrityError):
            _prepare(table, [{"id": 1, "title": "B", "year": None}])

    def test_insert_rows_is_prepare_plus_apply(self, table):
        rows = table.insert_rows(
            [{"id": 1, "title": "A", "year": None}, (2, "B", 1990)]
        )
        assert rows == [(1, "A", None), (2, "B", 1990)]
        assert len(table) == 2
