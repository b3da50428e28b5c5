"""Full-access wrapper: owned databases with full-text indexes.

The setup phase instantiates a full-text index over every attribute and
warms the catalog; at run time DOMAIN states are scored with the backend's
search function (the paper's preferred evidence), schema states with the
ontology, and generated SQL runs on the backend's engine.

The wrapper binds to a :class:`~repro.storage.base.StorageBackend` rather
than to one concrete store: pass a plain
:class:`~repro.db.database.Database` (wrapped into a
:class:`~repro.storage.memory.MemoryBackend` for compatibility) or any
backend from :mod:`repro.storage` — rankings are identical either way,
because backends guarantee score parity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import faults
from repro.db.catalog import Catalog
from repro.db.database import Database
from repro.db.executor import ResultSet
from repro.db.fulltext import FullTextIndex
from repro.db.query import SelectQuery
from repro.db.schema import ColumnRef
from repro.errors import QuestError
from repro.hmm.states import StateKind, StateSpace
from repro.storage import MemoryBackend, StorageBackend, as_backend
from repro.wrapper.base import (
    DEFAULT_EMISSION_CACHE_SIZE,
    SIMILARITY_CUTOFF,
    SourceWrapper,
)
from repro.wrapper.ontology import SchemaOntology

__all__ = ["FullAccessWrapper"]

#: Schema-term evidence is discounted against instance evidence: a keyword
#: that literally occurs in the data is stronger proof than a name match.
_SCHEMA_TERM_SCALE = 0.8


class FullAccessWrapper(SourceWrapper):
    """Wrapper over a fully accessible storage backend."""

    def __init__(
        self,
        source: Database | StorageBackend,
        ontology: SchemaOntology | None = None,
        fulltext: FullTextIndex | None = None,
        emission_cache_size: int = DEFAULT_EMISSION_CACHE_SIZE,
    ) -> None:
        if fulltext is not None:
            if not isinstance(source, Database):
                raise QuestError(
                    "a prebuilt FullTextIndex only applies to a plain "
                    "Database source; backends own their index"
                )
            backend: StorageBackend = MemoryBackend(source, fulltext=fulltext)
        else:
            backend = as_backend(source)
        # Set before super().__init__: the base class snapshots the
        # source version for emission-cache invalidation.
        self._backend = backend
        super().__init__(
            backend.schema, ontology=ontology, emission_cache_size=emission_cache_size
        )
        #: Per-state-space index arrays for the batched emission path,
        #: keyed by the state tuple (an engine has one space; a foreign
        #: feedback model may add a second — the dict stays tiny).
        self._state_layouts: dict[tuple, tuple] = {}

    # -- capabilities --------------------------------------------------------

    def _source_version(self) -> int:
        return self._backend.version

    @property
    def has_instance_access(self) -> bool:
        return True

    @property
    def catalog(self) -> Catalog:
        return self._backend.catalog

    @property
    def backend(self) -> StorageBackend:
        """The storage backend this wrapper mediates access to."""
        return self._backend

    @property
    def fulltext(self) -> FullTextIndex:
        """The in-process full-text index (memory backends only).

        Exposed for baselines and diagnostics; backends that serve search
        engine-side (SQLite) have no in-process index to hand out.
        """
        fulltext = getattr(self._backend, "fulltext", None)
        if fulltext is None:
            raise QuestError(
                f"backend {self._backend.name!r} has no in-process full-text "
                "index; use the backend's search methods instead"
            )
        return fulltext

    @property
    def database(self) -> Database:
        """The underlying database (memory backends only; for baselines/tests)."""
        database = getattr(self._backend, "database", None)
        if database is None:
            raise QuestError(
                f"backend {self._backend.name!r} does not expose an in-memory "
                "Database; go through the StorageBackend protocol instead"
            )
        return database

    # -- emission scores ---------------------------------------------------------

    def compute_emission_scores(self, keyword: str, states: StateSpace) -> np.ndarray:
        """Full-text scores for DOMAIN states, ontology for schema states."""
        faults.fire("emission.compute")
        scores = np.zeros(len(states))
        domain_scores = self._backend.attribute_scores(keyword)
        scorer = self._ontology.scorer(keyword)
        for position, state in enumerate(states):
            if state.kind is StateKind.DOMAIN:
                ref = state.column_ref
                scores[position] = domain_scores.get(ref, 0.0)
            elif state.kind is StateKind.TABLE:
                similarity = scorer.table_score(state.table)
                if similarity >= SIMILARITY_CUTOFF:
                    scores[position] = similarity * _SCHEMA_TERM_SCALE
            else:  # ATTRIBUTE
                similarity = scorer.attribute_score(state.table, state.column)
                if similarity >= SIMILARITY_CUTOFF:
                    scores[position] = similarity * _SCHEMA_TERM_SCALE
        return scores

    def _state_layout(self, states: StateSpace) -> tuple:
        """Cached split of a state space into DOMAIN and schema positions."""
        key = states.states
        layout = self._state_layouts.get(key)
        if layout is None:
            domain_positions: list[int] = []
            domain_refs: list = []
            schema_states: list[tuple[int, object]] = []
            for position, state in enumerate(states):
                if state.kind is StateKind.DOMAIN:
                    domain_positions.append(position)
                    domain_refs.append(state.column_ref)
                else:
                    schema_states.append((position, state))
            layout = (
                np.asarray(domain_positions, dtype=np.int64),
                tuple(domain_refs),
                tuple(schema_states),
            )
            self._state_layouts[key] = layout
        return layout

    def compute_emission_matrix(
        self, keywords: Sequence[str], states: StateSpace
    ) -> np.ndarray:
        """All keywords against all states in one vectorised pass.

        DOMAIN columns are filled from the backend's batched
        :meth:`~repro.storage.base.StorageBackend.emission_block` (columnar
        array slicing on the memory backend, one grouped SQL query on
        SQLite) instead of one ``attribute_scores`` dict walk per keyword;
        schema states go through one ontology scorer per keyword exactly
        like the per-keyword hook, so the matrix rows are bit-identical to
        :meth:`compute_emission_scores`.
        """
        faults.fire("emission.compute")
        domain_positions, domain_refs, schema_states = self._state_layout(states)
        matrix = np.zeros((len(keywords), len(states)))
        if len(domain_positions):
            matrix[:, domain_positions] = self._backend.emission_block(
                keywords, domain_refs
            )
        for row, keyword in zip(matrix, keywords):
            scorer = self._ontology.scorer(keyword)
            for position, state in schema_states:
                if state.kind is StateKind.TABLE:
                    similarity = scorer.table_score(state.table)
                else:  # ATTRIBUTE
                    similarity = scorer.attribute_score(state.table, state.column)
                if similarity >= SIMILARITY_CUTOFF:
                    row[position] = similarity * _SCHEMA_TERM_SCALE
        return matrix

    # -- execution -----------------------------------------------------------------

    def execute(self, query: SelectQuery) -> ResultSet:
        return self._backend.execute(query)

    def result_count(self, query: SelectQuery) -> int:
        """Count backend-side: SQLite answers with ``COUNT(*)``, no rows move."""
        return self._backend.result_count(query)

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        return self._backend.has_postings(token, ref)
