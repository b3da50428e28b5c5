"""Schema-aware ontology: lexicon knowledge fused with schema annotations.

The hidden-source wrapper "exploits ... external ontologies to guess the
attributes that can be associated with each keyword". Here the external
ontology is the built-in lexicon extended with the synonyms declared on the
schema itself, giving a single relatedness oracle between user keywords and
schema terms.

A keyword's score against a schema identifier reads string features —
casefolded form, stems, part stems, trigrams and each character's
positions as a bitmask
(:class:`~repro.semantics.similarity.TermFeatures`) — that are derived
once per string: each schema identifier's (and each of its word parts')
on first use, so building an ontology scores nothing, and each keyword's
once per :class:`KeywordScorer`. An emission pass makes one scorer per
keyword, and the scorer scores each distinct identifier once: ``name``
and ``id`` recur across many tables, so a row asks for far fewer scores
than it has states. Only Jaro-Winkler, which reads both strings together,
runs per pair: its bit-parallel match walk reads the identifier through
its cached position masks, a few integer operations per keyword
character. The lexicon's synonym and hypernym tables are read live, so a
lexicon mutation shows in the next score.
"""

from __future__ import annotations

from repro.db.schema import Schema
from repro.semantics.lexicon import Lexicon, default_lexicon
from repro.semantics.similarity import (
    TermFeatures,
    feature_similarity,
    term_features,
)
from repro.semantics.tokenize import split_identifier

__all__ = ["KeywordScorer", "SchemaOntology"]

#: Partial-hit discounts: a keyword naming one word of a compound table
#: name usually means the entity, so table fragments count for less.
_TABLE_PARTIAL_SCALE = 0.7
_ATTRIBUTE_PARTIAL_SCALE = 0.9

#: A term's features and the features of its identifier word parts.
_TermEntry = tuple[TermFeatures, tuple[TermFeatures, ...]]


class SchemaOntology:
    """Relatedness between keywords and the terms of one schema."""

    def __init__(self, schema: Schema, lexicon: Lexicon | None = None) -> None:
        self.schema = schema
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        # Fold schema-declared synonyms into the lexicon as synonym rings.
        for table in schema.tables:
            if table.synonyms:
                self.lexicon.add_synonym_ring(table.name, *table.synonyms)
            for column in table.columns:
                if column.synonyms:
                    self.lexicon.add_synonym_ring(column.name, *column.synonyms)
        #: Schema identifier -> its features, derived on first use. The
        #: keys are the schema's names and synonyms, so this stays as
        #: small as the schema vocabulary.
        self._identifiers: dict[str, _TermEntry] = {}

    def scorer(self, keyword: str) -> KeywordScorer:
        """Scores of *keyword* against this schema's tables and columns."""
        return KeywordScorer(self, keyword)

    def term_score(
        self, keyword: str, term: str, partial_scale: float = _ATTRIBUTE_PARTIAL_SCALE
    ) -> float:
        """Similarity of *keyword* to one schema identifier in ``[0, 1]``.

        The maximum of string similarity and lexicon relatedness, where
        multi-word identifiers are compared part-wise: ``release_year``
        matches the keyword ``date`` through the lexicon entry for
        ``year``, discounted by *partial_scale* for being a partial hit.
        """
        whole, part = self._evidence(term_features(keyword), _term_entry(term))
        return max(whole, partial_scale * part)

    def table_score(self, keyword: str, table: str) -> float:
        """Relatedness of *keyword* to a table (name + synonyms)."""
        return self.scorer(keyword).table_score(table)

    def attribute_score(self, keyword: str, table: str, column: str) -> float:
        """Relatedness of *keyword* to a column (name + synonyms)."""
        return self.scorer(keyword).attribute_score(table, column)

    def _identifier(self, term: str) -> _TermEntry:
        entry = self._identifiers.get(term)
        if entry is None:
            entry = self._identifiers[term] = _term_entry(term)
        return entry

    def _evidence(
        self, keyword: TermFeatures, entry: _TermEntry
    ) -> tuple[float, float]:
        """(whole-term score, best word-part relatedness) of one pair."""
        term, parts = entry
        related = self.lexicon.feature_relatedness
        whole = max(feature_similarity(keyword, term), related(keyword, term))
        return whole, max((related(keyword, p) for p in parts), default=0.0)


class KeywordScorer:
    """One keyword's scores against one schema, for one emission pass.

    The keyword's features are derived once, and each distinct identifier
    is scored once whatever the number of tables and columns that share
    it. Not shared between threads: make one per keyword and pass.
    """

    __slots__ = ("_ontology", "_keyword", "_evidence")

    def __init__(self, ontology: SchemaOntology, keyword: str) -> None:
        self._ontology = ontology
        self._keyword = term_features(keyword)
        self._evidence: dict[str, tuple[float, float]] = {}

    def table_score(self, table: str) -> float:
        """Relatedness to a table (name + synonyms).

        Partial hits are discounted harder than for attributes: a keyword
        naming one fragment of a compound *table* name usually means the
        entity (``rivers`` means the ``river`` table, not the ``geo_river``
        junction), whereas attribute fragments (``year`` in
        ``release_year``) are genuine evidence.
        """
        table_schema = self._ontology.schema.table(table)
        return max(
            self._score(name, _TABLE_PARTIAL_SCALE)
            for name in (table_schema.name, *table_schema.synonyms)
        )

    def attribute_score(self, table: str, column: str) -> float:
        """Relatedness to a column (name + synonyms)."""
        column_schema = self._ontology.schema.table(table).column(column)
        return max(
            self._score(name, _ATTRIBUTE_PARTIAL_SCALE)
            for name in (column_schema.name, *column_schema.synonyms)
        )

    def _score(self, term: str, partial_scale: float) -> float:
        evidence = self._evidence.get(term)
        if evidence is None:
            ontology = self._ontology
            evidence = self._evidence[term] = ontology._evidence(
                self._keyword, ontology._identifier(term)
            )
        whole, part = evidence
        return max(whole, partial_scale * part)


def _term_entry(term: str) -> _TermEntry:
    return term_features(term), tuple(
        term_features(part) for part in split_identifier(term)
    )
