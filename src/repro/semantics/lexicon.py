"""A small built-in lexicon: synonym and hypernym knowledge for matching.

The paper's wrapper consults "external ontologies" to guess which attributes
a keyword may refer to. Offline, we ship a compact curated lexicon covering
the vocabulary of the three demo domains (movies, bibliography, geography)
plus generic database words; users can extend it at run time or load their
own from a plain dict.

The lexicon is deliberately *word-level* (no senses): QUEST only needs a
soft signal that e.g. ``film`` may mean ``movie`` and that ``actor`` is a
kind of ``person``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.semantics.similarity import TermFeatures, term_features
from repro.semantics.stemmer import stem

__all__ = ["Lexicon", "default_lexicon"]

#: Synonym rings: every word in a ring is a synonym of every other.
_SYNONYM_RINGS: tuple[tuple[str, ...], ...] = (
    ("movie", "film", "picture", "feature"),
    ("actor", "actress", "performer", "star", "cast"),
    ("director", "filmmaker", "auteur"),
    ("genre", "category", "kind", "type"),
    ("year", "date"),
    ("title", "name", "heading"),
    ("rating", "score", "grade", "stars"),
    ("person", "people", "individual", "human"),
    ("author", "writer", "creator"),
    ("paper", "article", "publication", "pub"),
    ("conference", "venue", "proceedings", "meeting"),
    ("journal", "periodical", "magazine"),
    ("country", "nation", "state"),
    ("city", "town", "municipality", "metropolis"),
    ("capital", "seat"),
    ("population", "inhabitants", "residents"),
    ("river", "stream", "waterway"),
    ("mountain", "peak", "summit"),
    ("lake", "loch"),
    ("area", "surface", "extent"),
    ("language", "tongue"),
    ("religion", "faith", "creed"),
    ("continent", "landmass"),
    ("organization", "organisation", "body", "institution"),
    ("member", "affiliate"),
    ("province", "region", "district", "territory"),
    ("company", "firm", "studio", "producer"),
    ("salary", "wage", "pay", "income"),
    ("employee", "worker", "staff"),
    ("customer", "client", "buyer"),
    ("address", "location", "place"),
    ("phone", "telephone", "mobile"),
    ("email", "mail"),
)

#: Hypernym edges ``(specific, general)``.
_HYPERNYM_EDGES: tuple[tuple[str, str], ...] = (
    ("actor", "person"),
    ("director", "person"),
    ("author", "person"),
    ("employee", "person"),
    ("customer", "person"),
    ("city", "place"),
    ("country", "place"),
    ("province", "place"),
    ("capital", "city"),
    ("river", "water"),
    ("lake", "water"),
    ("sea", "water"),
    ("comedy", "genre"),
    ("drama", "genre"),
    ("thriller", "genre"),
    ("horror", "genre"),
    ("western", "genre"),
    ("documentary", "genre"),
    ("journal", "venue"),
    ("conference", "venue"),
    ("paper", "document"),
    ("book", "document"),
    ("thesis", "document"),
)


class Lexicon:
    """Word-level synonym/hypernym knowledge with stem folding."""

    def __init__(
        self,
        synonym_rings: tuple[tuple[str, ...], ...] = (),
        hypernym_edges: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._synonyms: dict[str, set[str]] = defaultdict(set)
        self._hypernyms: dict[str, set[str]] = defaultdict(set)
        self._hyponyms: dict[str, set[str]] = defaultdict(set)
        #: Bumped on every mutation, so anything that caches scores read
        #: from this lexicon can key them on the vocabulary they saw.
        self.version = 0
        for ring in synonym_rings:
            self.add_synonym_ring(*ring)
        for specific, general in hypernym_edges:
            self.add_hypernym(specific, general)

    # -- construction ----------------------------------------------------

    def add_synonym_ring(self, *words: str) -> None:
        """Declare every pair among *words* to be synonyms."""
        stems = {stem(word) for word in words}
        for word_stem in stems:
            self._synonyms[word_stem] |= stems - {word_stem}
        self.version += 1

    def add_hypernym(self, specific: str, general: str) -> None:
        """Declare *general* a hypernym of *specific*."""
        specific_stem, general_stem = stem(specific), stem(general)
        self._hypernyms[specific_stem].add(general_stem)
        self._hyponyms[general_stem].add(specific_stem)
        self.version += 1

    # -- queries -----------------------------------------------------------

    def synonyms(self, word: str) -> set[str]:
        """Stems synonymous with *word* (excluding the word itself)."""
        return set(self._synonyms.get(stem(word), ()))

    def hypernyms(self, word: str) -> set[str]:
        """Direct hypernym stems of *word*."""
        return set(self._hypernyms.get(stem(word), ()))

    def hyponyms(self, word: str) -> set[str]:
        """Direct hyponym stems of *word*."""
        return set(self._hyponyms.get(stem(word), ()))

    def are_synonyms(self, left: str, right: str) -> bool:
        """Whether the two words share a stem or a synonym ring."""
        left_stem, right_stem = stem(left), stem(right)
        if left_stem == right_stem:
            return True
        return right_stem in self._synonyms.get(left_stem, ())

    def relatedness(self, left: str, right: str) -> float:
        """Graded semantic relatedness in ``[0, 1]``.

        1.0 for same stem, 0.9 for synonyms, 0.7 for a direct hypernym /
        hyponym hop, 0.5 for sharing a hypernym (siblings), else 0.0.
        """
        return self.feature_relatedness(term_features(left), term_features(right))

    def feature_relatedness(self, left: TermFeatures, right: TermFeatures) -> float:
        """:meth:`relatedness` of two strings, read from their features.

        The stems come precomputed; the synonym and hypernym tables are
        read live, so a mutation shows in the very next call.
        """
        if left.stem == right.stem:
            return 1.0
        # are_synonyms(left.stem, right.stem), which stems its arguments.
        if left.restem == right.restem or right.restem in self._synonyms.get(
            left.restem, ()
        ):
            return 0.9
        ups_left = self._hypernyms.get(left.stem, set())
        ups_right = self._hypernyms.get(right.stem, set())
        if right.stem in ups_left or left.stem in ups_right:
            return 0.7
        if ups_left & ups_right:
            return 0.5
        return 0.0

    def expand(self, word: str) -> set[str]:
        """The word's stem plus all synonyms and direct hypernyms."""
        word_stem = stem(word)
        return {word_stem} | self.synonyms(word_stem) | self.hypernyms(word_stem)


def default_lexicon() -> Lexicon:
    """The built-in lexicon covering the three demo domains."""
    return Lexicon(_SYNONYM_RINGS, _HYPERNYM_EDGES)
