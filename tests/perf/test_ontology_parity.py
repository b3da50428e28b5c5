"""Parity: the schema ontology's scores against the pairwise reference.

The ontology derives each string's features (casefolded form, stems, part
stems, trigrams) once and scores each distinct identifier once per
keyword. The contract is *bit identity* with
:func:`tests.oracle.term_score_reference`, which recomputes everything
from the two strings for every pair, Jaro-Winkler by the per-position
window scan rather than the bit-parallel kernel: on the mondial, imdb and dblp
schemas, for gold keywords, typos of them, quoted phrases and inflected
words, before and after the lexicon gains a synonym ring and a hypernym.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp, imdb, mondial
from repro.semantics.tokenize import tokenize_query
from repro.wrapper.ontology import SchemaOntology

from tests.oracle import term_score_reference

_GENERATORS = {
    "mondial": (mondial.generate(countries=8, seed=23), mondial.workload),
    "imdb": (imdb.generate(movies=40, seed=7), imdb.workload),
    "dblp": (dblp.generate(papers=40, seed=13), dblp.workload),
}


def _gold_keywords() -> list[str]:
    keywords: set[str] = set()
    for db, workload in _GENERATORS.values():
        for query in workload(db, queries_per_kind=3):
            keywords.update(tokenize_query(query.text))
    return sorted(keywords)


GOLD = _gold_keywords()
SCHEMAS = {name: db.schema for name, (db, _workload) in _GENERATORS.items()}
IDENTIFIERS = sorted(
    {
        name
        for schema in SCHEMAS.values()
        for table in schema.tables
        for name in (
            table.name,
            *table.synonyms,
            *(n for c in table.columns for n in (c.name, *c.synonyms)),
        )
    }
)


@st.composite
def _typo(draw) -> str:
    """A gold keyword with one character deleted, doubled, swapped or
    replaced."""
    word = draw(st.sampled_from([w for w in GOLD if len(w) > 1]))
    i = draw(st.integers(0, len(word) - 2))
    edit = draw(st.sampled_from(("delete", "double", "swap", "replace")))
    if edit == "delete":
        return word[:i] + word[i + 1 :]
    if edit == "double":
        return word[: i + 1] + word[i:]
    if edit == "swap":
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    return word[:i] + draw(st.sampled_from("aeiosty")) + word[i + 1 :]


#: Inflections that exercise every stemmer rule, including the ones whose
#: output stems again differently ("thinkings" -> "thinking" -> "think").
_SUFFIXES = ("", "s", "es", "ies", "ing", "ings", "ed", "sses", "ss")

KEYWORDS = st.one_of(
    st.sampled_from(GOLD),
    _typo(),
    # A quoted phrase is one multi-word keyword.
    st.lists(st.sampled_from(GOLD), min_size=2, max_size=3).map(
        lambda words: tokenize_query('"' + " ".join(words) + '"')[0]
    ),
    st.sampled_from(IDENTIFIERS),
    st.tuples(st.sampled_from(GOLD + IDENTIFIERS), st.sampled_from(_SUFFIXES)).map(
        "".join
    ),
    # Raw keywords as a caller may pass them: cased, padded, or empty.
    st.sampled_from(GOLD).map(lambda w: f" {w.upper()} "),
    st.sampled_from(("", " ", "_", "x")),
)


def _assert_parity(ontology: SchemaOntology, keyword: str) -> None:
    schema = ontology.schema
    scorer = ontology.scorer(keyword)
    for table in schema.tables:
        names = (table.name, *table.synonyms)
        for name in names:
            for scale in (0.7, 0.9):
                assert ontology.term_score(
                    keyword, name, scale
                ) == term_score_reference(ontology, keyword, name, scale), (
                    keyword,
                    name,
                    scale,
                )
        want = max(term_score_reference(ontology, keyword, n, 0.7) for n in names)
        assert scorer.table_score(table.name) == want, (keyword, table.name)
        assert ontology.table_score(keyword, table.name) == want
        for column in table.columns:
            want = max(
                term_score_reference(ontology, keyword, n)
                for n in (column.name, *column.synonyms)
            )
            assert scorer.attribute_score(table.name, column.name) == want, (
                keyword,
                table.name,
                column.name,
            )
            assert ontology.attribute_score(keyword, table.name, column.name) == want


@pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
@settings(max_examples=60, deadline=None)
@given(
    keyword=KEYWORDS,
    synonym=st.sampled_from(IDENTIFIERS),
    hypernym=st.sampled_from(IDENTIFIERS),
)
def test_scores_match_pairwise_reference(schema_name, keyword, synonym, hypernym):
    ontology = SchemaOntology(SCHEMAS[schema_name])
    _assert_parity(ontology, keyword)
    # The lexicon is read live: a new ring or hypernym edge shows in the
    # next scorer, and the scores still equal the reference's.
    ontology.lexicon.add_synonym_ring(keyword, synonym)
    ontology.lexicon.add_hypernym(keyword, hypernym)
    _assert_parity(ontology, keyword)


def test_lexicon_mutation_changes_the_next_score():
    """A synonym ring added after a first score raises the next one: no
    score survives from the older vocabulary."""
    ontology = SchemaOntology(SCHEMAS["mondial"])
    before = ontology.table_score("kingdom", "country")
    ontology.lexicon.add_synonym_ring("kingdom", "country")
    after = ontology.table_score("kingdom", "country")
    assert before < after == term_score_reference(
        ontology, "kingdom", "country", 0.7
    )


def test_every_gold_keyword_matches_on_every_schema():
    """The whole gold vocabulary, not a sample, on all three schemas."""
    for schema in SCHEMAS.values():
        ontology = SchemaOntology(schema)
        for keyword in GOLD:
            _assert_parity(ontology, keyword)


def test_concurrent_first_use_scores_match_reference():
    """Eight threads fill one ontology's identifier features at once (a
    fresh ontology, a tiny switch interval): every score still equals the
    reference, whichever thread derived the features it read."""
    schema = SCHEMAS["mondial"]
    ontology = SchemaOntology(schema)
    keywords = GOLD[:12]
    want = {
        (keyword, table.name, column.name): max(
            term_score_reference(ontology, keyword, n)
            for n in (column.name, *column.synonyms)
        )
        for keyword in keywords
        for table in schema.tables
        for column in table.columns
    }
    got: list[dict[tuple[str, str, str], float]] = [{} for _ in range(8)]

    def work(offset: int) -> None:
        for keyword in keywords[offset:] + keywords[:offset]:
            scorer = ontology.scorer(keyword)
            for table in schema.tables:
                for column in table.columns:
                    got[offset][keyword, table.name, column.name] = (
                        scorer.attribute_score(table.name, column.name)
                    )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(scores == want for scores in got)
