"""Tests for string similarity measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp, imdb, mondial
from repro.semantics import (
    edit_similarity,
    jaro_winkler,
    levenshtein,
    term_similarity,
    token_set_similarity,
    trigram_similarity,
)
from repro.semantics.similarity import (
    _jaccard,
    _jaro_winkler,
    jaro,
    term_features,
)
from repro.semantics.tokenize import tokenize_query

from tests.oracle import jaro_reference, jaro_winkler_reference

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), max_size=12
)

#: Strings for the bit-parallel Jaro kernel against its loop twin: a
#: small alphabet (so characters repeat and compete for window slots),
#: letters that casefold to more than one character ("ß" -> "ss",
#: "İ" -> "i̇"), and lengths up to 80, past one 64-bit word.
jaro_texts = st.one_of(
    st.text(alphabet="ab", max_size=80),
    st.text(alphabet="abcd", max_size=80),
    st.text(alphabet="aßsİi\u0307x ", max_size=40),
    st.text(max_size=24),
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_winkler_boosts_prefix(self):
        assert jaro_winkler("prefix", "prefixx") > jaro("prefix", "prefixx")

    @given(words, words)
    def test_range(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0


def _same_bits(got: float, want: float) -> bool:
    return got.hex() == want.hex()


class TestJaroKernelParity:
    """The bit-parallel kernel against the per-position scan, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(jaro_texts, jaro_texts)
    def test_matches_loop_twin(self, a, b):
        assert _same_bits(jaro(a, b), jaro_reference(a, b)), (a, b)
        assert _same_bits(jaro_winkler(a, b), jaro_winkler_reference(a, b)), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(jaro_texts, jaro_texts)
    def test_cached_masks_match_loop_twin(self, a, b):
        # The ontology's path: casefolded strings, the right side read
        # through the position masks its features carry.
        left, right = term_features(a), term_features(b)
        assert _same_bits(
            _jaro_winkler(left.folded, right.folded, right.char_masks),
            jaro_winkler_reference(left.folded, right.folded),
        ), (a, b)

    def test_every_gold_keyword_against_every_identifier(self):
        generators = (
            (mondial.generate(countries=8, seed=23), mondial.workload),
            (imdb.generate(movies=40, seed=7), imdb.workload),
            (dblp.generate(papers=40, seed=13), dblp.workload),
        )
        keywords: set[str] = set()
        identifiers: set[str] = set()
        for db, workload in generators:
            for query in workload(db, queries_per_kind=3):
                keywords.update(tokenize_query(query.text))
            for table in db.schema.tables:
                identifiers.update((table.name, *table.synonyms))
                for column in table.columns:
                    identifiers.update((column.name, *column.synonyms))
        terms = [term_features(identifier) for identifier in sorted(identifiers)]
        for keyword in sorted(keywords):
            folded = term_features(keyword).folded
            for term in terms:
                assert _same_bits(
                    _jaro_winkler(folded, term.folded, term.char_masks),
                    jaro_winkler_reference(folded, term.folded),
                ), (keyword, term.text)

    @given(st.frozensets(st.text(max_size=2)), st.frozensets(st.text(max_size=2)))
    def test_jaccard_from_sizes_is_the_union_ratio(self, a, b):
        if a or b:
            assert _same_bits(_jaccard(a, b), len(a & b) / len(a | b))


class TestTrigram:
    def test_identical(self):
        assert trigram_similarity("movie", "movie") == 1.0

    def test_empty(self):
        assert trigram_similarity("", "abc") == 0.0

    def test_partial_overlap(self):
        assert 0.0 < trigram_similarity("movie", "movies") < 1.0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert trigram_similarity(a, b) == pytest.approx(
            trigram_similarity(b, a)
        )


class TestTokenSet:
    def test_reordered_compound(self):
        assert token_set_similarity("release_year", "year_release") == 1.0

    def test_stem_folding(self):
        assert token_set_similarity("movies", "movie") == 1.0

    def test_partial(self):
        assert token_set_similarity("release_year", "year") == pytest.approx(0.5)


class TestTermSimilarity:
    def test_exact_match(self):
        assert term_similarity("title", "title") == 1.0

    def test_case_insensitive(self):
        assert term_similarity("Title", "TITLE") == 1.0

    def test_stem_match(self):
        assert term_similarity("movies", "movie") == pytest.approx(0.95)

    def test_empty_inputs(self):
        assert term_similarity("", "title") == 0.0
        assert term_similarity("title", "") == 0.0

    def test_real_matches_beat_noise(self):
        assert term_similarity("movies", "movie") > term_similarity(
            "movies", "name"
        )
        assert term_similarity("director", "director_id") > term_similarity(
            "director", "genre_id"
        )

    @given(words, words)
    def test_range(self, a, b):
        assert 0.0 <= term_similarity(a, b) <= 1.0

    def test_edit_similarity_range(self):
        assert edit_similarity("", "") == 1.0
        assert edit_similarity("a", "b") == 0.0
