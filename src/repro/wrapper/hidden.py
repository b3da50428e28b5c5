"""Hidden-source wrapper: Deep Web databases without instance access.

Simulates the scenario the paper highlights as unique to QUEST: the source
sits behind an endpoint (web form / web service), so no full-text indexes
can be built and no statistics collected. Keyword-to-attribute evidence
comes exclusively from regular expressions of admissible values, schema
annotations, database metadata (datatypes) and the ontology.

The wrapper may still *execute* final SQL through the endpoint — the paper's
wrapper runs the generated queries and computes results even for Deep Web
sources — but nothing else: any setup-phase instance read raises
:class:`~repro.errors.AccessDeniedError`. An endpoint-less wrapper (pure
query generator) is obtained by omitting ``remote_db``.
"""

from __future__ import annotations

import numpy as np

from repro.db.catalog import Catalog
from repro.db.database import Database
from repro.db.executor import ResultSet
from repro.db.query import SelectQuery
from repro.db.schema import Schema
from repro.errors import AccessDeniedError
from repro.hmm.states import StateKind, StateSpace
from repro.semantics.recognizers import shape_score
from repro.storage import StorageBackend, as_backend
from repro.wrapper.base import DEFAULT_EMISSION_CACHE_SIZE, SourceWrapper
from repro.wrapper.ontology import SchemaOntology

__all__ = ["HiddenSourceWrapper"]

#: Below this, a name-similarity score is noise (same cutoff as full access).
_SIMILARITY_CUTOFF = 0.78
#: DOMAIN evidence from shape matching is weaker than full-text evidence;
#: scaled down so schema-name hits still dominate when both are plausible.
_SHAPE_SCALE = 0.6


class HiddenSourceWrapper(SourceWrapper):
    """Wrapper for a source reachable only through a query endpoint."""

    def __init__(
        self,
        schema: Schema,
        remote_db: Database | StorageBackend | None = None,
        ontology: SchemaOntology | None = None,
        emission_cache_size: int = DEFAULT_EMISSION_CACHE_SIZE,
    ) -> None:
        super().__init__(schema, emission_cache_size=emission_cache_size)
        # The endpoint may be any storage backend — the Deep Web source's
        # engine is as much a deployment choice as the owned sources' —
        # but setup-phase reads stay forbidden either way.
        self._remote = as_backend(remote_db) if remote_db is not None else None
        self._catalog = Catalog.schema_only(schema)
        self._ontology = ontology if ontology is not None else SchemaOntology(schema)

    # -- capabilities --------------------------------------------------------

    @property
    def has_instance_access(self) -> bool:
        return False

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    # -- emission scores ---------------------------------------------------------

    def compute_emission_scores(self, keyword: str, states: StateSpace) -> np.ndarray:
        """Regex / datatype / ontology evidence only — no instance reads.

        DOMAIN states combine the column's value-shape compatibility with a
        semantic prior: a keyword related to the *column name* is also more
        likely to be one of its values (e.g. keyword ``thriller`` vs column
        ``genre.label`` on a source whose ``genre`` table name matches).
        """
        scores = np.zeros(len(states))
        for position, state in enumerate(states):
            if state.kind is StateKind.DOMAIN:
                column = self.schema.table(state.table).column(state.column)
                shape = shape_score(keyword, column)
                if shape <= 0.0:
                    continue
                table_prior = self._ontology.table_score(keyword, state.table)
                column_prior = self._ontology.attribute_score(
                    keyword, state.table, state.column
                )
                prior = max(table_prior, column_prior, 0.25)
                scores[position] = _SHAPE_SCALE * shape * prior
            elif state.kind is StateKind.TABLE:
                similarity = self._ontology.table_score(keyword, state.table)
                if similarity >= _SIMILARITY_CUTOFF:
                    scores[position] = similarity
            else:  # ATTRIBUTE
                similarity = self._ontology.attribute_score(
                    keyword, state.table, state.column
                )
                if similarity >= _SIMILARITY_CUTOFF:
                    scores[position] = similarity
        return scores

    # -- execution -----------------------------------------------------------------

    def execute(self, query: SelectQuery) -> ResultSet:
        """Run *query* through the endpoint, if one is configured."""
        if self._remote is None:
            raise AccessDeniedError(
                f"source {self.schema.name!r} has no query endpoint"
            )
        return self._remote.execute(query)

    def result_count(self, query: SelectQuery) -> int:
        """Count through the endpoint (backend-side when it can)."""
        if self._remote is None:
            raise AccessDeniedError(
                f"source {self.schema.name!r} has no query endpoint"
            )
        return self._remote.result_count(query)
