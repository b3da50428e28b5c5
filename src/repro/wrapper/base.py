"""The source-wrapper contract.

QUEST is "conceived as a tool working on top of a traditional DBMS" but
does not rely on a specific implementation of the keyword-ranking function:
a wrapper mediates every interaction with the data source. Two concrete
wrappers exist — full access (owned databases) and hidden access (Deep Web
sources) — and the whole engine is written against this interface, which
is what makes the hidden-source mode possible at all.

Emission scoring is the per-keyword hot path of the forward step, and the
score vector for a keyword depends only on the keyword and the (static)
source — so the base class caches it: ``emission_scores`` is a concrete
method that serves repeated keywords from a thread-safe LRU cache shared
by every engine bound to the wrapper, and concrete wrappers implement the
``compute_emission_scores`` hook instead. Cache hit/miss counters surface
per query in the pipeline's ``SearchTrace``.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.db.catalog import Catalog
from repro.db.executor import ResultSet
from repro.db.query import SelectQuery
from repro.db.schema import ColumnRef, Schema
from repro.cache import CacheStats, LRUCache
from repro.hmm.states import StateSpace
from repro.wrapper.ontology import SchemaOntology

__all__ = ["SourceWrapper"]


#: Default emission-cache capacity: comfortably above the distinct-keyword
#: count of any benchmark workload while bounding memory on open vocabularies.
DEFAULT_EMISSION_CACHE_SIZE = 2048


class SourceWrapper(abc.ABC):
    """Mediates every engine interaction with one data source.

    Concrete wrappers must provide keyword-vs-state emission scores (the
    paper's attribute-ranking function), query execution (running the
    generated SQL) and a catalog. Instance-dependent capabilities are
    discoverable through :attr:`has_instance_access` so the engine can
    degrade gracefully on hidden sources.
    """

    def __init__(
        self,
        schema: Schema,
        ontology: SchemaOntology | None = None,
        emission_cache_size: int = DEFAULT_EMISSION_CACHE_SIZE,
    ) -> None:
        self.schema = schema
        #: Scores schema terms; its lexicon's version is part of the
        #: emission-cache stamp (see :meth:`~repro.cache.LRUCache.sync`).
        self._ontology = ontology if ontology is not None else SchemaOntology(schema)
        self._emission_cache = LRUCache(emission_cache_size, label="emission")

    def _source_version(self) -> int:
        """Mutation counter of the underlying source (0 when static).

        Wrappers over mutable backends override this; the emission cache
        is dropped whenever the counter moves, so cached vectors never
        outlive the data they were scored against.
        """
        return 0

    # -- capabilities --------------------------------------------------------

    @property
    @abc.abstractmethod
    def has_instance_access(self) -> bool:
        """Whether setup-phase instance reads (indexes, statistics) exist."""

    @property
    @abc.abstractmethod
    def catalog(self) -> Catalog:
        """The source catalog (schema-only for hidden sources)."""

    # -- the attribute-ranking function ---------------------------------------

    @abc.abstractmethod
    def compute_emission_scores(
        self, keyword: str, states: StateSpace
    ) -> np.ndarray:
        """Relevance of *keyword* for every HMM state (non-negative).

        This is QUEST's "function that, given a keyword and the database
        attributes, ranks the attribute values on the basis of their
        importance", lifted to the full state space: DOMAIN states are
        scored against attribute *contents* (full-text or shape evidence),
        TABLE/ATTRIBUTE states against schema *names* (semantic evidence).
        """

    def compute_emission_matrix(
        self, keywords: Sequence[str], states: StateSpace
    ) -> np.ndarray:
        """Scores of several keywords against the state space, ``(K, n)``.

        The batched form of :meth:`compute_emission_scores`. Wrappers able
        to amortise work across a query's keywords (the full-access
        wrapper scores all of them against the columnar index in one
        pass) override this; the default loops the scalar hook. Rows are
        bit-identical to the per-keyword calls in either case.
        """
        return np.array(
            [self.compute_emission_scores(keyword, states) for keyword in keywords]
        )

    @property
    def lexicon_version(self) -> int:
        """Mutation counter of the ontology's lexicon.

        Schema-term scores read the lexicon live, so a synonym or
        hypernym added after a search changes the emissions of every
        keyword it relates.
        """
        return self._ontology.lexicon.version

    def _emission_stamp(self) -> tuple[int, int]:
        """``(source version, lexicon version)``: what emissions are read from."""
        return (self._source_version(), self.lexicon_version)

    def emission_scores(self, keyword: str, states: StateSpace) -> np.ndarray:
        """Cached emission vector for *keyword* over *states*.

        The returned array is shared across callers and marked read-only;
        consumers that need to modify it must copy first. The key carries
        the full state tuple (``states.key``, hashed once), not just its
        length: a vector is only ever reused for a state space with
        identical content *and order* (a foreign feedback model may
        legally carry a same-length space with different ordering — see
        ``Quest.set_feedback_model``) — plus the source and lexicon
        versions observed at lookup time (see :meth:`~repro.cache.LRUCache.sync`).
        """
        version = self._emission_cache.sync(self._emission_stamp())
        key = (keyword, states.key, version)
        cached = self._emission_cache.get(key)
        if cached is not None:
            return cached
        scores = np.asarray(self.compute_emission_scores(keyword, states))
        scores.setflags(write=False)
        self._emission_cache.put(key, scores)
        return scores

    def emission_matrix(
        self, keywords: Sequence[str], states: StateSpace
    ) -> np.ndarray:
        """Raw emission scores for a whole observation sequence, ``(T, n)``.

        The batched forward-stage entry point. Keywords are deduplicated
        first — a repeated keyword in one query pays a single cache probe
        and a single scoring pass, while its per-position rows in the
        returned matrix are preserved — and every distinct keyword missing
        from the cache is scored in one :meth:`compute_emission_matrix`
        call instead of K independent walks. Rows are the exact vectors
        :meth:`emission_scores` returns (and are cached as such), so the
        batched and per-keyword paths are bit-identical.
        """
        version = self._emission_cache.sync(self._emission_stamp())
        key_states = states.key
        vectors: dict[str, np.ndarray] = {}
        misses: list[str] = []
        for keyword in dict.fromkeys(keywords):
            cached = self._emission_cache.get((keyword, key_states, version))
            if cached is None:
                misses.append(keyword)
            else:
                vectors[keyword] = cached
        if misses:
            block = np.asarray(self.compute_emission_matrix(misses, states))
            for keyword, row in zip(misses, block):
                scores = np.ascontiguousarray(row)
                scores.setflags(write=False)
                self._emission_cache.put((keyword, key_states, version), scores)
                vectors[keyword] = scores
        return np.stack([vectors[keyword] for keyword in keywords])

    @property
    def source_version(self) -> int:
        """Public mutation counter of the underlying source.

        The serving tier folds this into ``Quest.version`` so a cached
        service result can never outlive the data it was computed from.
        """
        return self._source_version()

    @property
    def emission_cache(self) -> LRUCache:
        """The shared keyword -> emission-vector cache."""
        return self._emission_cache

    @property
    def emission_cache_stats(self) -> CacheStats:
        """Hit/miss counters of the emission cache."""
        return self._emission_cache.stats

    # -- query execution --------------------------------------------------------

    @abc.abstractmethod
    def execute(self, query: SelectQuery) -> ResultSet:
        """Run a generated SQL query and return its results.

        Hidden sources answer through their endpoint; wrappers with no
        endpoint at all raise :class:`~repro.errors.AccessDeniedError`.
        """

    def result_count(self, query: SelectQuery) -> int:
        """Number of rows *query* yields (default: execute and count)."""
        return len(self.execute(query))

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        """Whether any row of ``ref`` holds the CONTAINS token *token*.

        ``None`` (the default) decides nothing: a source whose postings
        the engine cannot read, such as a hidden one, keeps counting
        every explanation through :meth:`result_count`.
        """
        return None

    def __repr__(self) -> str:
        access = "full" if self.has_instance_access else "hidden"
        return f"{type(self).__name__}({self.schema.name!r}, access={access})"
