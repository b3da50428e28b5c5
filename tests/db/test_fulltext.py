"""Tests for the full-text inverted index."""

import threading

import numpy as np

from repro.db import ColumnRef, FullTextIndex
from repro.db.fulltext import tokenize_value

from tests.oracle import PostingsReference


def _tf_idf(db, term: str, matches: int, field_size: int) -> float:
    """The index's score expression with tf = *matches* / *field_size*."""
    return (matches / field_size) * PostingsReference(db).idf(term)


class TestTokenizeValue:
    def test_null_gives_nothing(self):
        assert tokenize_value(None) == []

    def test_lowercases_and_splits(self):
        assert tokenize_value("A Space-Odyssey") == ["a", "space", "odyssey"]

    def test_numbers_are_tokens(self):
        assert tokenize_value(1968) == ["1968"]


class TestIndex:
    def test_vocabulary(self, mini_db):
        index = FullTextIndex(mini_db)
        assert "kubrick" in index
        assert "odyssey" in index
        assert "zzz" not in index
        assert index.vocabulary_size > 10

    def test_attribute_scores_target_right_column(self, mini_db):
        index = FullTextIndex(mini_db)
        scores = index.attribute_scores("kubrick")
        assert set(scores) == {ColumnRef("person", "name")}
        assert scores[ColumnRef("person", "name")] > 0

    def test_numeric_columns_are_indexed(self, mini_db):
        index = FullTextIndex(mini_db)
        scores = index.attribute_scores("1968")
        assert ColumnRef("movie", "year") in scores

    def test_term_spread_across_attributes(self, mini_db):
        # "the" appears in several titles only.
        index = FullTextIndex(mini_db)
        scores = index.attribute_scores("the")
        assert ColumnRef("movie", "title") in scores

    def test_score_zero_for_absent(self, mini_db):
        index = FullTextIndex(mini_db)
        assert index.attribute_scores("nothing") == {}
        assert ColumnRef("movie", "year") not in index.attribute_scores("the")

    def test_matching_row_positions(self, mini_db):
        index = FullTextIndex(mini_db)
        positions = index.matching_row_positions(
            "kubrick", ColumnRef("person", "name")
        )
        assert positions == [0]

    def test_selectivity(self, mini_db):
        # tf = the fraction of the attribute's values matching the term.
        index = FullTextIndex(mini_db)
        ref = ColumnRef("movie", "title")
        assert index.attribute_scores("the")[ref] == _tf_idf(mini_db, "the", 2, 5)
        assert ref not in index.attribute_scores("zzz")

    def test_more_selective_term_scores_higher(self, mini_db):
        index = FullTextIndex(mini_db)
        ref = ColumnRef("movie", "title")
        # "odyssey" appears in 1/5 titles, "the" in 2/5 — idf equal or lower
        # for the more common term, so tf dominates.
        scores = {k: index.attribute_scores(k)[ref] for k in ("the", "odyssey")}
        assert scores["the"] > scores["odyssey"]

    def test_fields_cover_all_columns(self, mini_db):
        index = FullTextIndex(mini_db)
        assert len(index.fields()) == sum(
            len(t.columns) for t in mini_db.schema.tables
        )

    def test_indexes_agrees_with_fields(self, mini_db):
        index = FullTextIndex(mini_db)
        assert all(index.indexes(ref) for ref in index.fields())
        assert not index.indexes(ColumnRef("movie", "no_such_column"))
        assert not index.indexes(ColumnRef("no_such_table", "title"))


class TestRefresh:
    """The index stays correct under row inserts (mutation satellite)."""

    def test_reads_see_rows_inserted_after_build(self, mini_db):
        index = FullTextIndex(mini_db)
        assert "akerman" not in index
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        # no explicit refresh: reads lazily notice the stale version
        assert "akerman" in index
        assert index.matching_row_positions(
            "akerman", ColumnRef("person", "name")
        ) == [3]

    def test_incremental_equals_full_rebuild(self, mini_db):
        incremental = FullTextIndex(mini_db)
        incremental.attribute_scores("kubrick")  # force the initial build
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        mini_db.insert(
            "movie",
            {
                "id": 9,
                "title": "The Kubrick Documentary",
                "year": 2001,
                "director_id": 9,
                "genre_id": 3,
            },
        )
        rebuilt = FullTextIndex(mini_db)  # built fresh over the final state
        reference = PostingsReference(mini_db)
        for keyword in ("kubrick", "akerman", "documentary", "2001", "the"):
            assert incremental.attribute_scores(
                keyword
            ) == rebuilt.attribute_scores(keyword), keyword
            # Same tf denominators as the live rows give.
            assert incremental.attribute_scores(
                keyword
            ) == reference.attribute_scores(keyword), keyword
            for ref in (ColumnRef("person", "name"), ColumnRef("movie", "title")):
                assert incremental.matching_row_positions(
                    keyword, ref
                ) == rebuilt.matching_row_positions(keyword, ref)

    def test_selectivity_denominator_tracks_inserts(self, mini_db):
        index = FullTextIndex(mini_db)
        ref = ColumnRef("movie", "title")
        assert index.attribute_scores("the")[ref] == _tf_idf(mini_db, "the", 2, 5)
        mini_db.insert(
            "movie",
            {"id": 9, "title": "The Return", "year": 2002, "director_id": 1,
             "genre_id": 1},
        )
        assert index.attribute_scores("the")[ref] == _tf_idf(mini_db, "the", 3, 6)
        # ... and deletes: "The Shining", then "Alien" (no "the").
        mini_db.table("movie").delete_rows([(2,)])
        assert index.attribute_scores("the")[ref] == _tf_idf(mini_db, "the", 2, 5)
        mini_db.table("movie").delete_rows([(3,)])
        assert index.attribute_scores("the")[ref] == _tf_idf(mini_db, "the", 2, 4)
        assert PostingsReference(mini_db).field_sizes[ref] == 4

    def test_explicit_refresh_is_idempotent(self, mini_db):
        index = FullTextIndex(mini_db)
        before = index.attribute_scores("kubrick")
        index.refresh()
        index.refresh()
        assert index.attribute_scores("kubrick") == before


class TestDeltaLayer:
    """A write after a seal releases the CSR snapshot and records the
    touched terms as a delta; the dicts answer every read until a merge
    reseals, bit-identical to a rebuild throughout."""

    KEYWORDS = ("kubrick", "odyssey", "the", "2001", "akerman")

    def _assert_matches_rebuild(self, index, db):
        rebuilt = FullTextIndex(db)
        reference = PostingsReference(db)
        for keyword in self.KEYWORDS:
            assert index.attribute_scores(keyword) == rebuilt.attribute_scores(
                keyword
            ), keyword
            assert index.attribute_scores(
                keyword
            ) == reference.attribute_scores(keyword), keyword
            for ref in (ColumnRef("person", "name"), ColumnRef("movie", "title")):
                assert index.matching_row_positions(
                    keyword, ref
                ) == rebuilt.matching_row_positions(keyword, ref)

    def test_insert_after_seal_layers_a_delta(self, mini_db):
        index = FullTextIndex(mini_db)
        index.warm()  # seal the columnar snapshot
        assert index.delta_terms == frozenset()
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        index.refresh()
        assert "akerman" in index.delta_terms
        self._assert_matches_rebuild(index, mini_db)

    def test_delete_after_seal_layers_a_delta(self, mini_db):
        index = FullTextIndex(mini_db)
        index.warm()
        mini_db.table("person").delete_rows([(1,)])
        index.refresh()
        assert index.delta_terms  # the deleted row's terms are recorded
        self._assert_matches_rebuild(index, mini_db)

    def test_merge_reseals_with_identical_scores(self, mini_db):
        index = FullTextIndex(mini_db)
        index.warm()
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        mini_db.table("movie").delete_rows([(2,)])
        index.refresh()
        before = {k: index.attribute_scores(k) for k in self.KEYWORDS}
        index.merge()
        assert index.delta_terms == frozenset()
        for keyword in self.KEYWORDS:
            assert index.attribute_scores(keyword) == before[keyword]
        self._assert_matches_rebuild(index, mini_db)

    def test_save_seals_a_live_delta_first(self, mini_db, tmp_path):
        index = FullTextIndex(mini_db)
        index.warm()
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        index.refresh()
        assert index.delta_terms
        artifact = tmp_path / "index.npz"
        index.save(artifact, generation=7)
        assert index.delta_terms == frozenset()  # save sealed the delta
        assert FullTextIndex.peek_generation(artifact) == 7
        loaded = FullTextIndex.load(artifact, mini_db)
        for keyword in self.KEYWORDS:
            assert loaded.attribute_scores(keyword) == index.attribute_scores(
                keyword
            )

    def test_growing_delta_reads_from_the_dicts_and_starts_no_thread(
        self, mini_db
    ):
        index = FullTextIndex(mini_db)
        index.warm()
        threads = threading.active_count()
        refs = index.fields()
        touched: set[str] = set()
        next_id = 100
        # Each row adds three fresh terms (its id and two name tokens):
        # the delta grows past 256 and then past 4096 touched terms.
        for step_rows in (60, 40, 100, 1200, 10):
            rows = [
                {"id": i, "name": f"qx{i} qy{i}"}
                for i in range(next_id, next_id + step_rows)
            ]
            next_id += step_rows
            mini_db.insert_rows("person", rows)
            for row in rows:
                for value in row.values():
                    touched.update(tokenize_value(value))
            if step_rows == 40:
                # A delete among the writes: its row's terms join the delta.
                mini_db.delete_rows("person", [(1,)])
                touched.update(("1", "stanley", "kubrick"))
            keywords = (
                list(self.KEYWORDS) + sorted(touched)[::97] + ["zzz", "qx101"]
            )
            self._assert_bit_identical(index, mini_db, keywords, refs)
            assert threading.active_count() == threads
            assert index.delta_terms == touched
        assert len(touched) > 4096
        before = {k: index.attribute_scores(k) for k in keywords}
        index.merge()
        assert index.delta_terms == frozenset()
        assert {k: index.attribute_scores(k) for k in keywords} == before
        self._assert_bit_identical(index, mini_db, keywords, refs)
        assert threading.active_count() == threads

    def test_write_touching_no_term_keeps_the_snapshot(self, mini_db):
        index = FullTextIndex(mini_db)
        index.warm()
        sealed = index._snapshot
        version = mini_db.version
        # Inserted and deleted before the index saw it: nothing to index
        # or unindex, though the database version moved.
        mini_db.insert("person", {"id": 9, "name": "Chantal Akerman"})
        mini_db.delete_rows("person", [(9,)])
        assert mini_db.version != version
        self._assert_matches_rebuild(index, mini_db)
        assert index.delta_terms == frozenset()
        assert index._snapshot is sealed

    def _assert_bit_identical(self, index, db, keywords, refs):
        rebuilt = FullTextIndex(db)
        reference = PostingsReference(db)
        for keyword in keywords:
            scores = index.attribute_scores(keyword)
            assert scores == rebuilt.attribute_scores(keyword), keyword
            assert scores == reference.attribute_scores(keyword), keyword
            for ref in refs:
                positions = index.matching_row_positions(keyword, ref)
                assert positions == rebuilt.matching_row_positions(keyword, ref)
                assert positions == reference.matching_row_positions(keyword, ref)
                exists = index.has_postings(keyword, ref)
                assert exists == rebuilt.has_postings(keyword, ref)
                assert exists == reference.has_postings(keyword, ref)
        block = index.emission_block(keywords, refs)
        assert block.tobytes() == rebuilt.emission_block(keywords, refs).tobytes()
        expected = np.array(
            [
                [reference.attribute_scores(k).get(ref, 0.0) for ref in refs]
                for k in keywords
            ]
        )
        assert block.tobytes() == expected.tobytes()
