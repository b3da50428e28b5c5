"""QueryBuilder: rendering interpretations as executable SQL queries.

The last step of Algorithm 1 (``E <- QueryBuilder(E)``): an interpretation
fixes the FROM clause (the tables its Steiner tree touches), the join
conditions (the tree's primary/foreign key edges) and the WHERE clause
(keywords mapped to attribute domains become containment predicates);
keywords mapped to attribute names drive the projection.
:func:`query_identity` reads the built query's structural signature off
the interpretation, so callers can drop duplicates before building.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.interpretation import Interpretation
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery, TableRef
from repro.db.schema import Schema, TableSchema
from repro.steiner.tree import SteinerTree

__all__ = ["build_query", "query_identity"]


def _display_column(table: TableSchema) -> str:
    """The column shown for a table mapped as a whole: first non-key TEXT
    column, else the first primary-key column."""
    for column in table.columns:
        if column.dtype.is_textual and not table.is_key_column(column.name):
            return column.name
    return table.primary_key[0]


def _projection(
    schema: Schema, configuration: Configuration, tables: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    """Output columns: mapped attributes first, then display columns."""
    seen: set[tuple[str, str]] = set()
    output: list[tuple[str, str]] = []

    def add(alias: str, column: str) -> None:
        if (alias, column) not in seen:
            seen.add((alias, column))
            output.append((alias, column))

    for mapping in configuration.attribute_mappings():
        state = mapping.state
        assert state.column is not None
        add(state.table, state.column)
    for mapping in configuration.table_mappings():
        add(
            mapping.state.table,
            _display_column(schema.table(mapping.state.table)),
        )
    for mapping in configuration.domain_mappings():
        state = mapping.state
        assert state.column is not None
        add(state.table, state.column)
    if not output:
        for table in tables:
            add(table, _display_column(schema.table(table)))
    return tuple(output)


def build_query(
    schema: Schema,
    interpretation: Interpretation,
    limit: int | None = None,
) -> SelectQuery:
    """Build the SQL query denoted by *interpretation*.

    Args:
        schema: the source schema (for display-column selection).
        interpretation: the configuration + join path to materialise.
        limit: optional LIMIT applied to the generated query.

    Returns:
        A :class:`SelectQuery` using table names as aliases (the schema
        graph contains each attribute once, so no self-joins arise).
    """
    configuration = interpretation.configuration
    tables = tuple(sorted(interpretation.tables))
    table_refs = tuple(TableRef.of(name) for name in tables)

    joins = tuple(
        JoinCondition(fk.table, fk.column, fk.ref_table, fk.ref_column)
        for fk in interpretation.tree.foreign_keys()
    )

    predicates = tuple(
        Predicate(m.state.table, m.state.column, Comparison.CONTAINS, m.keyword)
        for m in configuration.domain_mappings()
        if m.state.column is not None
    )

    return SelectQuery(
        tables=table_refs,
        joins=joins,
        predicates=predicates,
        projection=_projection(schema, configuration, tables),
        distinct=True,
        limit=limit,
    )


def query_identity(
    interpretation: Interpretation,
    joins_of: dict[SteinerTree, frozenset],
    predicates_of: dict[Configuration, frozenset],
) -> tuple:
    """``build_query(schema, interpretation).signature()``, without the query.

    The query's tables are the interpretation's, its joins are the
    tree's foreign keys, and its predicates are the configuration's
    domain mappings as CONTAINS, so the signature's three parts are read
    off those directly. Trees and configurations repeat across a
    search's interpretations; *joins_of* and *predicates_of* memoise
    their parts for one search.
    """
    tree = interpretation.tree
    joins = joins_of.get(tree)
    if joins is None:
        joins = joins_of[tree] = frozenset(
            frozenset({(fk.table, fk.column), (fk.ref_table, fk.ref_column)})
            for fk in tree.foreign_keys()
        )
    configuration = interpretation.configuration
    predicates = predicates_of.get(configuration)
    if predicates is None:
        predicates = predicates_of[configuration] = frozenset(
            (
                m.state.table,
                m.state.column,
                Comparison.CONTAINS.value,
                m.keyword.casefold(),
            )
            for m in configuration.domain_mappings()
            if m.state.column is not None
        )
    return (interpretation.tables, joins, predicates)
