"""Parity and persistence of the columnar index tier.

Three contracts, each asserted as *bit identity*:

- the columnar (CSR numpy) index, sealed or with a write delta layered
  over it, returns exactly the scores, row positions and existence
  answers of brute-force postings read straight from the rows
  (``tests.oracle.PostingsReference``) on any data (hypothesis-generated
  random tables included);
- the batched emission path — ``emission_block`` on the index/backends,
  ``emission_matrix`` on the wrappers and on ``HiddenMarkovModel`` —
  produces the same floats as the per-keyword reference walk
  (``HiddenMarkovModel.emission_matrix_reference``), with duplicate
  keywords deduplicated
  but their per-position rows preserved;
- a save -> load round trip of the ``.npz`` artifact serves identical
  searches, and a stale artifact is refused (never silently served).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Quest
from repro.datasets import mondial
from repro.db import Column, Database, Schema, TableSchema
from repro.db.fulltext import FullTextIndex, tokenize_value
from repro.db.schema import ColumnRef
from repro.db.types import DataType
from repro.errors import IndexArtifactError
from repro.storage import MemoryBackend, create_backend
from repro.wrapper import FullAccessWrapper

from tests.oracle import PostingsReference, reference_kernels

# -- random-table parity (hypothesis) ----------------------------------------

#: A tiny vocabulary so generated values collide — term sharing across
#: rows, columns and tables is where TF/IDF arithmetic can diverge.
_WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "42", "1994", "x"]
)
_TEXT_VALUES = st.one_of(
    st.none(), st.lists(_WORDS, min_size=0, max_size=3).map(" ".join)
)


def _schema() -> Schema:
    return Schema(
        tables=[
            TableSchema(
                "left",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("words", DataType.TEXT),
                    Column("num", DataType.INTEGER),
                ),
                ("id",),
            ),
            TableSchema(
                "right",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("words", DataType.TEXT),
                ),
                ("id",),
            ),
        ],
        foreign_keys=[],
        name="parity",
    )


@st.composite
def _databases(draw):
    db = Database(_schema())
    for position in range(draw(st.integers(min_value=0, max_value=12))):
        db.insert(
            "left",
            {
                "id": position,
                "words": draw(_TEXT_VALUES),
                "num": draw(st.one_of(st.none(), st.integers(0, 50))),
            },
        )
    for position in range(draw(st.integers(min_value=0, max_value=8))):
        db.insert("right", {"id": position, "words": draw(_TEXT_VALUES)})
    return db


def _probe_terms(db: Database) -> list[str]:
    terms: set[str] = set()
    for table in db.tables:
        for row in table.rows:
            for value in row:
                terms.update(tokenize_value(value))
    return sorted(terms) + ["absent", "ALPHA", "42"]


@settings(max_examples=60, deadline=None)
@given(db=_databases())
def test_columnar_index_matches_brute_force_postings(db: Database):
    columnar = FullTextIndex(db)
    reference = PostingsReference(db)
    refs = [
        ColumnRef(table.name, column.name)
        for table in db.tables
        for column in table.schema.columns
    ]
    terms = _probe_terms(db)
    assert columnar.vocabulary_size == reference.vocabulary_size
    for term in terms:
        assert (term in columnar) == (term in reference)
        assert columnar.attribute_scores(term) == reference.attribute_scores(term)
        for ref in refs:
            assert columnar.matching_row_positions(
                term, ref
            ) == reference.matching_row_positions(term, ref)
            assert columnar.has_postings(term, ref) == reference.has_postings(
                term, ref
            )
    block = columnar.emission_block(terms, refs)
    for i, term in enumerate(terms):
        scores = reference.attribute_scores(term)
        assert np.array_equal(
            block[i], np.array([scores.get(ref, 0.0) for ref in refs])
        )


@settings(max_examples=20, deadline=None)
@given(db=_databases(), extra=st.lists(_WORDS, min_size=1, max_size=4))
def test_columnar_layout_stays_correct_under_inserts(db, extra):
    columnar = FullTextIndex(db)
    assert columnar.vocabulary_size == PostingsReference(db).vocabulary_size
    base = db.row_count("left")
    for offset, word in enumerate(extra):
        db.insert("left", {"id": 1000 + offset, "words": word, "num": None})
    reference = PostingsReference(db)  # over the final rows
    ref = ColumnRef("left", "words")
    for term in set(extra):
        assert columnar.attribute_scores(term) == reference.attribute_scores(term)
        positions = columnar.matching_row_positions(term, ref)
        assert positions == reference.matching_row_positions(term, ref)
        assert any(position >= base for position in positions)


# -- emission-path parity ----------------------------------------------------


@pytest.fixture(scope="module")
def mondial_db():
    return mondial.generate(countries=10, seed=29)


def test_emission_matrix_matches_per_keyword_walk(mondial_db):
    engine = Quest(FullAccessWrapper(MemoryBackend(mondial_db)))
    keywords = ["rivers", "ruritania", "rivers", "capital", "nosuchword"]
    batched = engine.wrapper.emission_matrix(keywords, engine.states)
    for row, keyword in zip(batched, keywords):
        assert np.array_equal(
            row, engine.wrapper.compute_emission_scores(keyword, engine.states)
        )
    # Duplicate keywords: identical rows, one scoring pass (the second
    # occurrence is a cache hit, not a recomputation).
    assert np.array_equal(batched[0], batched[2])
    model_batched = engine.apriori_model.emission_matrix(keywords, engine.wrapper)
    model_reference = engine.apriori_model.emission_matrix_reference(
        keywords, engine.wrapper
    )
    assert np.array_equal(model_batched, model_reference)


def test_columnar_index_flag_preserves_rankings(mondial_db):
    """The batched emission matrix (the former ``columnar_index`` setting)
    against the per-keyword reference walk, end to end: only the emission
    call site runs its twin, every other kernel stays in production."""
    site = "repro.hmm.model.HiddenMarkovModel.emission_matrix"
    workload = mondial.workload(mondial_db, queries_per_kind=2, seed=31)
    texts = [q.text for q in workload][:6]
    columnar = Quest(FullAccessWrapper(MemoryBackend(mondial_db)))
    reference = Quest(FullAccessWrapper(MemoryBackend(mondial_db)))
    fast = columnar.search_many(texts, strict=False)
    with reference_kernels(site) as calls:
        slow = reference.search_many(texts, strict=False)
    assert calls[site] > 0
    assert any(fast)
    assert [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in fast
    ] == [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in slow
    ]


def test_backend_attribute_scores_many_parity(mondial_db):
    for backend_name in ("memory", "sqlite"):
        backend = create_backend(backend_name, mondial_db)
        keywords = ["rivers", "ruritania", "rivers", "absent"]
        batched = backend.attribute_scores_many(keywords)
        assert batched == [backend.attribute_scores(k) for k in keywords]
        refs = [
            ColumnRef(table.name, column.name)
            for table in mondial_db.schema.tables
            for column in table.columns
        ]
        block = backend.emission_block(keywords, refs)
        for i, keyword in enumerate(keywords):
            scores = backend.attribute_scores(keyword)
            assert np.array_equal(
                block[i], np.array([scores.get(ref, 0.0) for ref in refs])
            )


# -- artifact round trip -----------------------------------------------------


def test_artifact_round_trip_serves_identical_searches(mondial_db, tmp_path):
    artifact = tmp_path / "mondial-fulltext.npz"
    built_index = FullTextIndex(mondial_db)
    built_index.warm()
    built_index.save(artifact)
    loaded_index = FullTextIndex.load(artifact, mondial_db)

    workload = mondial.workload(mondial_db, queries_per_kind=2, seed=31)
    texts = [q.text for q in workload][:6]
    built = Quest(FullAccessWrapper(MemoryBackend(mondial_db, fulltext=built_index)))
    loaded = Quest(
        FullAccessWrapper(MemoryBackend(mondial_db, fulltext=loaded_index))
    )
    from_build = built.search_many(texts, strict=False)
    from_artifact = loaded.search_many(texts, strict=False)
    assert [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in from_build
    ] == [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in from_artifact
    ]


def test_artifact_loads_through_backend_and_refreshes_after_mutation(tmp_path):
    db = mondial.generate(countries=6, seed=3)
    backend = MemoryBackend(db)
    artifact = tmp_path / "idx.npz"
    assert backend.save_index(artifact)
    fresh = MemoryBackend(db)
    assert fresh.load_index(artifact)
    assert fresh.attribute_scores("ruritania") == backend.attribute_scores(
        "ruritania"
    )
    # A mutation after the load must trigger the incremental tail scan
    # (the dict layout is rehydrated from the snapshot first).
    country = db.table("country").rows[0]
    db.insert(
        "country",
        {
            "code": "XX",
            "name": "Zzyzxstan unique",
            **{
                column.name: value
                for column, value in zip(
                    db.schema.table("country").columns, country
                )
                if column.name not in ("code", "name")
            },
        },
    )
    assert fresh.attribute_scores("zzyzxstan")
    assert fresh.attribute_scores("zzyzxstan") == MemoryBackend(
        db
    ).attribute_scores("zzyzxstan")


def test_stale_artifact_is_refused(mondial_db, tmp_path):
    artifact = tmp_path / "stale.npz"
    index = FullTextIndex(mondial_db)
    index.warm()
    index.save(artifact)
    other = mondial.generate(countries=4, seed=99)
    with pytest.raises(IndexArtifactError):
        FullTextIndex.load(artifact, other)
    missing = tmp_path / "missing.npz"
    with pytest.raises(IndexArtifactError):
        FullTextIndex.load(missing, mondial_db)


def test_load_or_build_builds_then_reuses(mondial_db, tmp_path):
    artifact = tmp_path / "cacheable.npz"
    first = FullTextIndex.load_or_build(artifact, mondial_db)
    assert artifact.exists()
    second = FullTextIndex.load_or_build(artifact, mondial_db)
    assert second.attribute_scores("ruritania") == first.attribute_scores(
        "ruritania"
    )


# -- memory-mapped artifacts -------------------------------------------------


def test_mmap_load_is_memmap_backed_and_bit_identical(mondial_db, tmp_path):
    artifact = tmp_path / "mapped.npz"
    built = FullTextIndex(mondial_db)
    built.warm()
    built.save(artifact)
    mapped = FullTextIndex.load(artifact, mondial_db, mmap=True)
    assert mapped.mmapped
    snapshot = mapped._snapshot
    assert isinstance(snapshot.row_positions, np.memmap)
    assert isinstance(snapshot.entry_counts, np.memmap)
    heap = FullTextIndex.load(artifact, mondial_db, mmap=False)
    assert not heap.mmapped
    for keyword in ("ruritania", "blue", "1994"):
        assert mapped.attribute_scores(keyword) == heap.attribute_scores(keyword)
        assert mapped.attribute_scores(keyword) == built.attribute_scores(keyword)


def test_load_or_build_reopens_a_fresh_build_mapped(mondial_db, tmp_path):
    artifact = tmp_path / "fresh.npz"
    index = FullTextIndex.load_or_build(artifact, mondial_db, mmap=True)
    # Even the build path must hand back a mapped index — the pages a
    # prefork parent touches here are the ones its workers will share.
    assert index.mmapped
    assert artifact.exists()


def test_mutation_after_mmap_load_layers_then_merges_into_heap(tmp_path):
    db = mondial.generate(countries=6, seed=3)
    artifact = tmp_path / "mut.npz"
    FullTextIndex.load_or_build(artifact, db)
    mapped = FullTextIndex.load(artifact, db, mmap=True)
    assert mapped.mmapped
    country = db.table("country").rows[0]
    db.insert(
        "country",
        {
            "code": "XX",
            "name": "Zzyzxstan unique",
            **{
                column.name: value
                for column, value in zip(
                    db.schema.table("country").columns, country
                )
                if column.name not in ("code", "name")
            },
        },
    )
    # A small mutation layers over the retained mapped snapshot ...
    assert mapped.attribute_scores("zzyzxstan")
    assert mapped.mmapped
    assert mapped.delta_terms
    assert mapped.attribute_scores("zzyzxstan") == FullTextIndex(
        db
    ).attribute_scores("zzyzxstan")
    # ... until a merge reseals the delta into a private in-heap snapshot.
    mapped.merge()
    assert not mapped.mmapped
    assert not mapped.delta_terms
    assert mapped.attribute_scores("zzyzxstan") == FullTextIndex(
        db
    ).attribute_scores("zzyzxstan")


def test_readonly_refuses_missing_and_stale_artifacts(mondial_db, tmp_path):
    missing = tmp_path / "absent.npz"
    with pytest.raises(IndexArtifactError, match="read-only"):
        FullTextIndex.load_or_build(missing, mondial_db, readonly=True)
    assert not missing.exists()  # read-only must never write

    stale = tmp_path / "stale.npz"
    index = FullTextIndex(mondial_db)
    index.warm()
    index.save(stale)
    other = mondial.generate(countries=4, seed=99)
    before = stale.read_bytes()
    with pytest.raises(IndexArtifactError, match="read-only"):
        FullTextIndex.load_or_build(stale, other, readonly=True)
    assert stale.read_bytes() == before  # ... nor repair in place


def _tampered_header(source, destination, mutate):
    """Rewrite *source*'s artifact with a mutated catalog header."""
    import json

    with np.load(source, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files if name != "header"}
        header = json.loads(str(data["header"]))
    mutate(header)
    with open(destination, "wb") as handle:
        np.savez(
            handle,
            header=np.asarray(json.dumps(header, sort_keys=True)),
            **arrays,
        )


def test_field_set_refusal_names_the_offending_fields(mondial_db, tmp_path):
    artifact = tmp_path / "fields.npz"
    index = FullTextIndex(mondial_db)
    index.warm()
    index.save(artifact)

    tampered = tmp_path / "tampered.npz"
    dropped = {}

    def swap_field(header):
        dropped["name"] = header["fields"][0]
        header["fields"] = header["fields"][1:] + ["bogus.column"]

    _tampered_header(artifact, tampered, swap_field)
    with pytest.raises(IndexArtifactError) as info:
        FullTextIndex.load(tampered, mondial_db)
    message = str(info.value)
    assert f"missing from artifact: {dropped['name']}" in message
    assert "unknown to schema: bogus.column" in message

    reordered = tmp_path / "reordered.npz"

    def reverse_fields(header):
        header["fields"] = list(reversed(header["fields"]))

    _tampered_header(artifact, reordered, reverse_fields)
    with pytest.raises(
        IndexArtifactError, match="field order differs at position 0"
    ):
        FullTextIndex.load(reordered, mondial_db)


def test_corrupt_artifact_raises_artifact_error(mondial_db, tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"this is not a zip archive at all")
    with pytest.raises(IndexArtifactError):
        FullTextIndex.load(garbage, mondial_db, mmap=True)
    with pytest.raises(IndexArtifactError):
        FullTextIndex.load(garbage, mondial_db, mmap=False)

    truncated = tmp_path / "truncated.npz"
    index = FullTextIndex(mondial_db)
    index.warm()
    index.save(tmp_path / "whole.npz")
    truncated.write_bytes((tmp_path / "whole.npz").read_bytes()[:128])
    with pytest.raises(IndexArtifactError):
        FullTextIndex.load(truncated, mondial_db, mmap=True)


def test_mmap_search_rankings_bit_identical(mondial_db, tmp_path):
    artifact = tmp_path / "serve.npz"
    FullTextIndex.load_or_build(artifact, mondial_db)
    mapped = FullTextIndex.load(artifact, mondial_db, mmap=True)
    heap = FullTextIndex.load(artifact, mondial_db, mmap=False)
    workload = mondial.workload(mondial_db, queries_per_kind=2, seed=31)
    texts = [q.text for q in workload][:4]
    from_mapped = Quest(
        FullAccessWrapper(MemoryBackend(mondial_db, fulltext=mapped))
    ).search_many(texts, strict=False)
    from_heap = Quest(
        FullAccessWrapper(MemoryBackend(mondial_db, fulltext=heap))
    ).search_many(texts, strict=False)
    assert [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in from_mapped
    ] == [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in from_heap
    ]

