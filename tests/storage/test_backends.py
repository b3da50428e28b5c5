"""Backend parity and behaviour tests for the storage subsystem.

The contract under test: for the same loaded data, every backend reports
bit-identical full-text scores, identical statistics and identical query
result counts — so rankings never depend on where the bytes live.
"""

import contextlib
import math
import sqlite3
import threading

import pytest

from repro.core import Quest
from repro.datasets import dblp, mondial
from repro.db.fulltext import tokenize_value
from repro.db import (
    ColumnRef,
    Comparison,
    JoinCondition,
    Predicate,
    SelectQuery,
    TableRef,
)
from repro.errors import ExecutionError, IntegrityError, QuestError
from repro.eval import evaluate_backends
from repro.storage import (
    BACKENDS,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    as_backend,
    create_backend,
)
from repro.wrapper import FullAccessWrapper

from tests.conftest import build_mini_db
from tests.oracle import PostingsReference

KEYWORDS = ["kubrick", "scott", "scifi", "alien", "1979", "the", "shining", "absent"]
REFS = [
    ColumnRef("movie", "title"),
    ColumnRef("person", "name"),
    ColumnRef("genre", "label"),
    ColumnRef("movie", "year"),
]


@pytest.fixture()
def mini_backends():
    db = build_mini_db()
    return {name: create_backend(name, db) for name in BACKENDS}


class TestRegistry:
    def test_known_backends(self):
        assert set(BACKENDS) == {"memory", "sqlite"}

    def test_unknown_backend_rejected(self, mini_db):
        with pytest.raises(QuestError, match="unknown storage backend"):
            create_backend("duckdb", mini_db)

    def test_as_backend_wraps_database(self, mini_db):
        backend = as_backend(mini_db)
        assert isinstance(backend, MemoryBackend)
        assert backend.database is mini_db

    def test_as_backend_passes_backends_through(self, mini_db):
        backend = MemoryBackend(mini_db)
        assert as_backend(backend) is backend

    def test_as_backend_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_backend(object())


class TestRowParity:
    def test_rows_and_counts_match(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for table in memory.schema.table_names:
            assert memory.table_rows(table) == sqlite.table_rows(table)
            assert memory.row_count(table) == sqlite.row_count(table)
        assert memory.total_rows() == sqlite.total_rows()

    def test_column_values_round_trip_types(self, mini_backends):
        for ref in REFS:
            values = {
                name: backend.column_values(ref)
                for name, backend in mini_backends.items()
            }
            assert values["memory"] == values["sqlite"]
            # types round-trip, not just reprs
            for left, right in zip(values["memory"], values["sqlite"]):
                assert type(left) is type(right)


class TestFullTextParity:
    def test_attribute_scores_bit_identical(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        # Brute-force postings from the rows: tf = matches / field size.
        reference = PostingsReference(memory.database)
        for keyword in KEYWORDS:
            left, right = (
                memory.attribute_scores(keyword),
                sqlite.attribute_scores(keyword),
            )
            assert left == right  # exact float equality is the contract
            assert left == reference.attribute_scores(keyword)
            for ref, score in left.items():
                assert math.isfinite(score) and score > 0.0

    def test_matching_row_positions(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for keyword in KEYWORDS:
            for ref in REFS:
                assert memory.matching_row_positions(
                    keyword, ref
                ) == sqlite.matching_row_positions(keyword, ref)

    def test_punctuated_terms_fall_back_identically(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        ref = ColumnRef("person", "name")
        for term in ["kubrick's", "a b", ""]:
            assert memory.matching_row_positions(
                term, ref
            ) == sqlite.matching_row_positions(term, ref)


class TestExecutionParity:
    QUERIES = [
        SelectQuery(tables=(TableRef.of("movie"),)),
        SelectQuery(
            tables=(TableRef.of("movie", "m"), TableRef.of("person", "p")),
            joins=(JoinCondition("m", "director_id", "p", "id"),),
            predicates=(Predicate("p", "name", Comparison.CONTAINS, "KUBRICK"),),
            projection=(("m", "title"),),
        ),
        SelectQuery(
            tables=(TableRef.of("movie"),),
            predicates=(Predicate("movie", "title", Comparison.LIKE, "The %"),),
        ),
        SelectQuery(
            tables=(TableRef.of("movie"),),
            predicates=(Predicate("movie", "year", Comparison.GE, 1980),),
            projection=(("movie", "year"),),
            distinct=True,
        ),
        SelectQuery(tables=(TableRef.of("person"), TableRef.of("genre"))),
        SelectQuery(
            tables=(TableRef.of("movie", "m1"), TableRef.of("movie", "m2")),
            joins=(JoinCondition("m1", "director_id", "m2", "director_id"),),
            predicates=(Predicate("m1", "title", Comparison.EQ, "Alien"),),
            projection=(("m2", "title"),),
        ),
    ]

    def test_result_sets_match(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for query in self.QUERIES:
            left, right = memory.execute(query), sqlite.execute(query)
            assert left.columns == right.columns
            assert sorted(map(str, left.rows)) == sorted(map(str, right.rows))
            assert memory.result_count(query) == sqlite.result_count(query)

    def test_limit_counts_match(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        query = SelectQuery(tables=(TableRef.of("movie"),), limit=2)
        assert memory.result_count(query) == sqlite.result_count(query) == 2

    def test_type_mismatch_raises_on_both(self, mini_backends):
        query = SelectQuery(
            tables=(TableRef.of("movie"),),
            predicates=(Predicate("movie", "year", Comparison.LT, "abc"),),
        )
        for backend in mini_backends.values():
            with pytest.raises(ExecutionError):
                backend.execute(query)


class TestStatisticsParity:
    def test_profiles_and_join_stats(self, mini_backends):
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for ref in memory.schema.column_refs():
            assert memory.catalog.profile(ref) == sqlite.catalog.profile(ref)
        for fk in memory.schema.foreign_keys:
            assert memory.catalog.join_stats(fk) == sqlite.catalog.join_stats(fk)
        for table in memory.schema.table_names:
            assert memory.catalog.table_cardinality(
                table
            ) == sqlite.catalog.table_cardinality(table)


class TestSQLitePersistence:
    def test_round_trip_through_file(self, tmp_path):
        db = build_mini_db()
        path = str(tmp_path / "mini.db")
        original = SQLiteBackend.from_database(db, path=path)
        expected_scores = original.attribute_scores("kubrick")
        expected_rows = original.table_rows("movie")
        original.close()

        reopened = SQLiteBackend.open(db.schema, path)
        assert reopened.table_rows("movie") == expected_rows
        assert reopened.attribute_scores("kubrick") == expected_scores
        reopened.close()

    def test_refresh_rebuilds_index(self):
        db = build_mini_db()
        backend = SQLiteBackend.from_database(db)
        before = backend.attribute_scores("kubrick")
        backend.refresh()
        assert backend.attribute_scores("kubrick") == before

    def test_repr_names_schema_and_path(self):
        db = build_mini_db()
        backend = SQLiteBackend.from_database(db)
        assert repr(backend) == f"SQLiteBackend({db.schema.name!r}, path=':memory:')"


def _fts5_available() -> bool:
    try:
        sqlite3.connect(":memory:").execute(
            "CREATE VIRTUAL TABLE probe USING fts5(doc)"
        )
    except sqlite3.OperationalError:
        return False
    return True


def _mirror_rows(path: str) -> int:
    connection = sqlite3.connect(path)
    try:
        return connection.execute('SELECT COUNT(*) FROM "_quest_fts"').fetchone()[0]
    finally:
        connection.close()


class TestSQLiteOldFile:
    """A file written while the backend still kept a full-text mirror
    table next to ``_quest_postings`` opens, takes writes and answers
    exactly like a fresh build; the stale mirror is never touched."""

    @pytest.mark.skipif(not _fts5_available(), reason="SQLite lacks FTS5")
    def test_old_mirror_is_ignored_under_writes(self, tmp_path):
        db = dblp.generate(papers=60)
        gold = dblp.workload(db, queries_per_kind=4)
        path = str(tmp_path / "old.db")
        SQLiteBackend.from_database(db, path=path).close()
        # The mirror as older files hold it: one document per indexed value.
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                'CREATE VIRTUAL TABLE "_quest_fts" USING fts5('
                "tbl UNINDEXED, col UNINDEXED, pos UNINDEXED, doc)"
            )
            connection.execute(
                'INSERT INTO "_quest_fts" (tbl, col, pos, doc) '
                "SELECT tbl, col, pos, group_concat(term, ' ') "
                'FROM "_quest_postings" GROUP BY tbl, col, pos'
            )
        connection.close()
        mirrored = _mirror_rows(path)
        assert mirrored > 0

        old = SQLiteBackend.open(db.schema, path)
        memory = MemoryBackend(db)  # the same writes, for the fresh build
        doomed = db.table("author").rows[:3]
        paper_id = doomed[0][1]
        for backend in (old, memory):
            backend.add_rows("person", [{"id": 9001, "name": "Quentin Zyxwell"}])
            backend.add_rows(
                "author", [{"person_id": 9001, "paper_id": paper_id, "position": 9}]
            )
            backend.delete_rows("author", [row[:2] for row in doomed])
        assert _mirror_rows(path) == mirrored

        fresh = SQLiteBackend.from_database(db)
        refs = [
            ColumnRef(table.name, column.name)
            for table in db.schema.tables
            for column in table.columns
        ]
        keywords = {"zyxwell", "quentin"}
        for query in gold:
            keywords.update(query.text.split())
            keywords.update(tokenize_value(query.text))
            assert old.result_count(query.gold_query) == fresh.result_count(
                query.gold_query
            ), query.text
        for keyword in sorted(keywords):
            assert old.attribute_scores(keyword) == fresh.attribute_scores(keyword)
            for ref in refs:
                assert old.has_postings(keyword, ref) == fresh.has_postings(
                    keyword, ref
                ), (keyword, ref)
        assert old.has_postings("zyxwell", ColumnRef("person", "name"))
        old.close()
        fresh.close()
        assert _mirror_rows(path) == mirrored


class TestSQLiteServingPosture:
    """The pragmas and fork behaviour multi-process serving relies on."""

    @staticmethod
    def _pragma(backend, name):
        return backend._connection.execute(f"PRAGMA {name}").fetchone()[0]

    def test_file_backed_store_runs_wal_normal_with_busy_timeout(self, tmp_path):
        backend = SQLiteBackend.from_database(
            build_mini_db(), path=str(tmp_path / "wal.db")
        )
        assert self._pragma(backend, "journal_mode") == "wal"
        assert self._pragma(backend, "synchronous") == 1  # NORMAL
        assert self._pragma(backend, "busy_timeout") == 5000
        backend.close()

    def test_memory_store_skips_wal_but_keeps_busy_timeout(self):
        backend = SQLiteBackend.from_database(build_mini_db())
        assert self._pragma(backend, "journal_mode") != "wal"
        assert self._pragma(backend, "busy_timeout") == 5000

    def test_forked_child_gets_its_own_connection_with_pragmas(self, tmp_path):
        backend = SQLiteBackend.from_database(
            build_mini_db(), path=str(tmp_path / "forked.db")
        )
        parent_connection = backend._connection
        expected = backend.table_rows("movie")
        # Simulate waking up in a forked child: the pid guard must swap
        # in a fresh connection (SQLite handles don't survive fork) and
        # re-apply the serving pragmas on it.
        backend._pid = -1
        child_connection = backend._connection
        assert child_connection is not parent_connection
        assert self._pragma(backend, "journal_mode") == "wal"
        assert self._pragma(backend, "busy_timeout") == 5000
        assert backend.table_rows("movie") == expected
        backend.close()

    def test_memory_store_keeps_its_connection_across_pid_change(self):
        backend = SQLiteBackend.from_database(build_mini_db())
        connection = backend._connection
        backend._pid = -1
        # Reconnecting a :memory: store would open an *empty* database;
        # the fork-copied connection is private to the child and correct.
        assert backend._connection is connection

    def test_concurrent_process_reads_same_wal_file(self, tmp_path):
        import os as _os

        path = str(tmp_path / "shared.db")
        backend = SQLiteBackend.from_database(build_mini_db(), path=path)
        expected = backend.attribute_scores("kubrick")
        read_fd, write_fd = _os.pipe()
        pid = _os.fork()
        if pid == 0:
            status = 1
            try:
                _os.close(read_fd)
                child_scores = backend.attribute_scores("kubrick")
                verdict = b"ok" if child_scores == expected else b"differs"
                _os.write(write_fd, verdict)
                _os.close(write_fd)
                status = 0
            finally:
                _os._exit(status)
        _os.close(write_fd)
        verdict = _os.read(read_fd, 16)
        _os.close(read_fd)
        _, wait_status = _os.waitpid(pid, 0)
        assert _os.waitstatus_to_exitcode(wait_status) == 0
        assert verdict == b"ok"
        # The parent's own connection is untouched by the child's reads.
        assert backend.attribute_scores("kubrick") == expected
        backend.close()


class TestWrapperBinding:
    def test_wrapper_accepts_backend(self, mini_db):
        for name in BACKENDS:
            wrapper = FullAccessWrapper(create_backend(name, mini_db))
            assert isinstance(wrapper.backend, StorageBackend)
            assert wrapper.catalog.has_instance

    def test_database_property_gated_by_backend(self, mini_db):
        memory = FullAccessWrapper(create_backend("memory", mini_db))
        assert memory.database is mini_db
        sqlite = FullAccessWrapper(create_backend("sqlite", mini_db))
        with pytest.raises(QuestError):
            sqlite.database
        with pytest.raises(QuestError):
            sqlite.fulltext

    def test_prebuilt_fulltext_requires_database_source(self, mini_db):
        backend = create_backend("sqlite", mini_db)
        from repro.db import FullTextIndex

        with pytest.raises(QuestError):
            FullAccessWrapper(backend, fulltext=FullTextIndex(mini_db))


class TestSearchParity:
    """The acceptance criterion: identical rankings through the full engine."""

    @pytest.fixture(scope="class")
    def mondial_setup(self):
        db = mondial.generate(countries=10, seed=23)
        texts = [
            q.text for q in mondial.workload(db, queries_per_kind=2, seed=23)
        ]
        return db, texts

    def test_search_many_rankings_identical(self, mondial_setup):
        db, texts = mondial_setup
        results = {}
        for name in BACKENDS:
            engine = Quest(FullAccessWrapper(create_backend(name, db)))
            results[name] = engine.search_many(texts)
        assert results["memory"] == results["sqlite"]
        assert any(results["memory"])  # the workload actually answers

    def test_evaluate_backends_agree_on_quality(self, mondial_setup):
        db, texts = mondial_setup
        workload = mondial.workload(db, queries_per_kind=2, seed=23)
        per_backend = evaluate_backends(db, workload, k=5)
        summaries = {
            name: {
                metric: value
                for metric, value in result.summary().items()
                if metric != "mean_seconds"  # timing is the one honest delta
            }
            for name, result in per_backend.items()
        }
        assert summaries["memory"] == summaries["sqlite"]

    def test_unbounded_count_unchanged(self, mondial_setup):
        """Every query a full search generates counts alike on both backends."""
        db, texts = mondial_setup
        memory, sqlite = create_backend("memory", db), create_backend("sqlite", db)
        engine = Quest(FullAccessWrapper(memory))
        queries = [
            explanation.query
            for text in texts
            for explanation in engine.search(text)
        ]
        assert queries
        for query in queries:
            assert sqlite.result_count(query) == memory.result_count(query)

    def test_workload_derivable_from_any_backend(self, mondial_setup):
        db, _texts = mondial_setup
        backend = create_backend("sqlite", db)
        from_db = mondial.workload(db, queries_per_kind=2, seed=23)
        from_backend = mondial.workload(backend, queries_per_kind=2, seed=23)
        assert [q.text for q in from_db] == [q.text for q in from_backend]
        assert [q.gold_query for q in from_db] == [
            q.gold_query for q in from_backend
        ]


class TestDatasetLoaders:
    def test_generate_backend_parameter(self):
        backend = mondial.generate(countries=5, seed=23, backend="sqlite")
        assert isinstance(backend, SQLiteBackend)
        database = mondial.generate(countries=5, seed=23)
        memory = mondial.generate(countries=5, seed=23, backend="memory")
        assert isinstance(memory, MemoryBackend)
        for table in database.schema.table_names:
            assert backend.table_rows(table) == database.table_rows(table)

    def test_generate_backend_options_forwarded(self, tmp_path):
        path = str(tmp_path / "mondial.db")
        backend = mondial.generate(countries=5, seed=23, backend="sqlite", path=path)
        assert backend.path == path
        assert backend.row_count("country") == 5


class TestBatchedMutation:
    """``add_rows``/``delete_rows`` — the only way rows enter or leave a
    backend. Every batch is validated up front and lands all rows or
    none, and searches after a write see it without manual refresh.
    """

    BATCH = [
        {"id": 60, "name": "Claire Denis"},
        {"id": 61, "name": "Lucrecia Martel"},
    ]

    def test_add_rows_keeps_search_consistent(self, mini_backends):
        for backend in mini_backends.values():
            assert backend.attribute_scores("akerman") == {}
            backend.add_rows("person", [{"id": 9, "name": "Chantal Akerman"}])
            scores = backend.attribute_scores("akerman")
            assert scores and ColumnRef("person", "name") in scores
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        assert memory.attribute_scores("akerman") == sqlite.attribute_scores(
            "akerman"
        )
        assert memory.table_rows("person") == sqlite.table_rows("person")

    def test_duplicate_primary_key_raises(self, mini_backends):
        for backend in mini_backends.values():
            with pytest.raises(IntegrityError):
                backend.add_rows("person", [{"id": 1, "name": "Duplicate"}])

    def test_not_null_enforced(self, mini_backends):
        for backend in mini_backends.values():
            with pytest.raises(IntegrityError):
                backend.add_rows("person", [{"id": 30, "name": None}])

    def test_scores_exact_after_failed_add(self, mini_backends):
        # A rejected batch must not corrupt the TF normalisers.
        for backend in mini_backends.values():
            with pytest.raises(IntegrityError):
                backend.add_rows("person", [{"id": 1, "name": "Kubrick Clone"}])
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        ref = ColumnRef("person", "name")
        idf = PostingsReference(memory.database).idf("kubrick")
        assert sqlite.attribute_scores("kubrick")[ref] == (1 / 3) * idf
        assert memory.attribute_scores("kubrick") == sqlite.attribute_scores(
            "kubrick"
        )

    @pytest.mark.parametrize("write", ["add", "delete"])
    def test_failed_transaction_rolls_back_every_mirror(
        self, mini_backends, monkeypatch, write
    ):
        # Validation rejects bad batches before BEGIN, so fail inside the
        # transaction instead: after the rows and postings are written,
        # before COMMIT. The rollback must restore the stored rows and
        # every in-memory mirror SQLite keeps beside them.
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]

        def state():
            return (
                sqlite.table_rows("person"),
                [sqlite.attribute_scores(keyword) for keyword in KEYWORDS],
                dict(sqlite._field_sizes),
                dict(sqlite._positions),
                sqlite.applied_seq,
                sqlite.version,
            )

        before = state()

        def fail(cursor, seq):
            raise sqlite3.OperationalError("injected failure before COMMIT")

        monkeypatch.setattr(sqlite, "_persist_applied_seq", fail)
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            if write == "add":
                sqlite.add_rows("person", self.BATCH)
            else:
                sqlite.delete_rows("person", [(1,), (2,)])
        assert state() == before
        for keyword in KEYWORDS:
            assert memory.attribute_scores(keyword) == sqlite.attribute_scores(
                keyword
            ), keyword
        monkeypatch.undo()
        # The backend stays writable, and positions continue unbroken.
        sqlite.add_rows("person", self.BATCH)
        memory.add_rows("person", self.BATCH)
        ref = ColumnRef("person", "name")
        assert memory.matching_row_positions(
            "denis", ref
        ) == sqlite.matching_row_positions("denis", ref)

    def test_live_engine_sees_adds_without_manual_invalidation(self):
        # The wrapper's emission LRU is keyed to the backend version, so
        # emission evidence after a mutation must reflect the new rows
        # even though the keyword's vector was already cached.
        for name in BACKENDS:
            backend = create_backend(name, build_mini_db())
            engine = Quest(FullAccessWrapper(backend))
            assert engine.evidence_coverage(["tarkovsky"]) == 0.0
            backend.add_rows("person", [{"id": 50, "name": "Andrei Tarkovsky"}])
            assert engine.evidence_coverage(["tarkovsky"]) == 1.0, name

    def test_add_rows_parity(self, mini_backends):
        for backend in mini_backends.values():
            landed = backend.add_rows("person", self.BATCH)
            assert len(landed) == 2
            assert backend.row_count("person") == 5
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for keyword in ("denis", "martel", "kubrick"):
            assert memory.attribute_scores(keyword) == sqlite.attribute_scores(
                keyword
            ), keyword
        assert memory.table_rows("person") == sqlite.table_rows("person")

    def test_add_rows_accepts_positional_rows(self, mini_backends):
        for backend in mini_backends.values():
            backend.add_rows("person", [[70, "Agnes Varda"]])
            assert backend.attribute_scores("varda")

    def test_failed_batch_lands_nothing(self, mini_backends):
        # All-or-nothing: the valid first row must NOT land when a later
        # row fails validation.
        rows = [
            {"id": 60, "name": "Claire Denis"},
            {"id": 1, "name": "Duplicate Key"},
        ]
        for backend in mini_backends.values():
            with pytest.raises(IntegrityError):
                backend.add_rows("person", rows)
            assert backend.row_count("person") == 3
            assert backend.attribute_scores("denis") == {}
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        assert memory.table_rows("person") == sqlite.table_rows("person")

    def test_batch_internal_duplicate_lands_nothing(self, mini_backends):
        rows = [
            {"id": 60, "name": "Claire Denis"},
            {"id": 60, "name": "Clone Denis"},
        ]
        for backend in mini_backends.values():
            with pytest.raises(IntegrityError, match="duplicate"):
                backend.add_rows("person", rows)
            assert backend.row_count("person") == 3

    def test_delete_rows_idempotent_parity(self, mini_backends):
        for backend in mini_backends.values():
            backend.add_rows("person", self.BATCH)
            assert backend.delete_rows("person", [(60,), (61,)]) == 2
            assert backend.delete_rows("person", [(60,), (99,)]) == 0
            assert backend.row_count("person") == 3
            assert backend.attribute_scores("denis") == {}
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        for keyword in KEYWORDS:
            assert memory.attribute_scores(keyword) == sqlite.attribute_scores(
                keyword
            ), keyword

    def test_positions_never_reused_after_delete(self, mini_backends):
        # Tombstoned positions stay dead: a row added after a delete gets
        # a fresh position, so sealed artifacts and mmap readers never
        # see a recycled slot with different content.
        ref = ColumnRef("person", "name")
        for backend in mini_backends.values():
            before = max(backend.matching_row_positions("kubrick", ref) or [0])
            backend.delete_rows("person", [(1,)])
            backend.add_rows("person", [{"id": 80, "name": "Kelly Reichardt"}])
            positions = backend.matching_row_positions("reichardt", ref)
            assert positions and min(positions) > before
        memory, sqlite = mini_backends["memory"], mini_backends["sqlite"]
        assert memory.matching_row_positions(
            "reichardt", ref
        ) == sqlite.matching_row_positions("reichardt", ref)

    def test_applied_seq_advances_with_journal(self, tmp_path):
        from repro.journal import MutationJournal

        for name in BACKENDS:
            backend = create_backend(name, build_mini_db())
            journal = MutationJournal(tmp_path / f"{name}.journal")
            backend.attach_journal(journal)
            assert backend.applied_seq == 0
            backend.add_rows("person", self.BATCH)
            assert backend.applied_seq == 1
            backend.delete_rows("person", [(60,)])
            assert backend.applied_seq == 2
            assert [r.seq for r in journal.records()] == [1, 2]
            journal.close()

    def test_concurrent_adds_of_one_key_store_it_once(self, tmp_path, monkeypatch):
        """Two threads add the same new key. A barrier in
        ``_journal_append`` would hold both there at once if validation
        ran outside the writer lock; under it the barrier times out and
        the second add fails validation before it journals: one record,
        ``applied_seq`` 1, one stored row."""
        from repro.journal import MutationJournal

        row = {"id": 77, "name": "Chantal Akerman"}
        for name in BACKENDS:
            backend = create_backend(name, build_mini_db())
            journal = MutationJournal(tmp_path / f"{name}.journal")
            backend.attach_journal(journal)
            barrier = threading.Barrier(2, timeout=0.3)
            append = backend._journal_append

            def journal_append(*args, **kwargs):
                with contextlib.suppress(threading.BrokenBarrierError):
                    barrier.wait()
                return append(*args, **kwargs)

            monkeypatch.setattr(backend, "_journal_append", journal_append)
            outcomes: list = []

            def add():
                try:
                    backend.add_rows("person", [row])
                except Exception as error:  # noqa: BLE001 - asserted below
                    outcomes.append(error)
                else:
                    outcomes.append("added")

            threads = [threading.Thread(target=add) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert outcomes.count("added") == 1, (name, outcomes)
            (error,) = [o for o in outcomes if o != "added"]
            assert isinstance(error, IntegrityError), (name, error)
            assert "duplicate primary key" in str(error)
            assert backend.applied_seq == 1, name
            assert [r.seq for r in journal.records()] == [1], name
            ids = [stored[0] for stored in backend.table_rows("person")]
            assert ids.count(77) == 1, name
            journal.close()

    def test_version_advances_on_batched_writes(self, mini_backends):
        for backend in mini_backends.values():
            v0 = backend.version
            backend.add_rows("person", self.BATCH)
            assert backend.version > v0
            v1 = backend.version
            backend.delete_rows("person", [(60,)])
            assert backend.version > v1
