"""Rendering logical queries to SQL text.

QUEST's final output is SQL ("SELECT XY FROM Z WHERE ..." in the paper's
Figure 1); this module turns :class:`~repro.db.query.SelectQuery` objects
into deterministic, readable SQL text. The renderer also emits
``CREATE TABLE`` DDL for schemas, used by examples and documentation.

Two dialects are supported:

- ``"standard"`` — portable SQL-92 for display and documentation.
  CONTAINS predicates are down-translated to case-insensitive ``LIKE``
  patterns, matching how QUEST's wrapper would rewrite full-text
  conditions for sources without a search function.
- ``"sqlite"`` — SQL executed verbatim by the SQLite storage backend.
  CONTAINS/LIKE render as calls to the ``QUEST_CONTAINS``/``QUEST_LIKE``
  user functions the backend registers on its connection (the exact
  Python predicates of :mod:`repro.db.executor`, so predicate semantics
  are identical across backends by construction); DATE literals render as
  ISO strings and BOOLEAN literals as ``1``/``0``, matching the backend's
  storage encoding. BOOLEAN columns under CONTAINS/LIKE are unwrapped to
  their ``True``/``False`` text rendering via CASE, which is why the
  sqlite dialect accepts an optional schema.

A per-row ``QUEST_CONTAINS`` call is the exact check, not the access
path: the caller may pass a *narrow* hook whose conjuncts are placed
ahead of each CONTAINS call. The SQLite backend uses it to restrict the
predicate's alias to the keyword tokens' posting lists, so the engine
seeks matching rows through its indexes and runs the exact check only on
them. What the conjuncts say — the postings relation, its layout — stays
in the backend; this renderer knows only where they go.
"""

from __future__ import annotations

from datetime import date
from typing import Any, Callable

from repro.db.query import Comparison, SelectQuery
from repro.db.schema import Schema, TableSchema
from repro.db.types import DataType, SQL_TYPE_NAMES

__all__ = [
    "quote_identifier",
    "render_sql",
    "render_literal",
    "render_create_table",
    "render_ddl",
]


def render_literal(value: Any, dialect: str = "standard") -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        if dialect == "sqlite":
            return "1" if value else "0"
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, date):
        if dialect == "sqlite":
            return f"'{value.isoformat()}'"
        return f"DATE '{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def quote_identifier(identifier: str) -> str:
    """Double-quote an identifier so reserved words stay usable as names."""
    return '"' + identifier.replace('"', '""') + '"'


def _target(alias: str, column: str, dialect: str) -> str:
    """Render ``alias.column``; the sqlite dialect quotes both parts."""
    if dialect == "sqlite":
        return f"{quote_identifier(alias)}.{quote_identifier(column)}"
    return f"{alias}.{column}"


def _text_expr(query: SelectQuery, alias: str, column: str, schema: Schema | None) -> str:
    """The expression a text predicate evaluates over, for the sqlite dialect.

    Booleans are stored as integers in SQLite, but the in-memory executor
    text-matches their Python rendering (``True``/``False``); the CASE
    keeps both backends matching the same strings. NULL stays NULL.
    """
    target = _target(alias, column, "sqlite")
    if schema is None:
        return target
    table = query.table_of(alias)
    dtype = schema.table(table).column(column).dtype
    if dtype is DataType.BOOLEAN:
        return f"(CASE {target} WHEN 1 THEN 'True' WHEN 0 THEN 'False' END)"
    return target


#: ``narrow(alias, table, column, keyword)``: extra SQL conjuncts a
#: backend places ahead of a CONTAINS predicate's exact check.
ContainsNarrowing = Callable[[str, str, str, Any], list[str]]


def render_sql(
    query: SelectQuery,
    dialect: str = "standard",
    schema: Schema | None = None,
    narrow: ContainsNarrowing | None = None,
) -> str:
    """Render a :class:`SelectQuery` as a single-line SQL statement.

    In the standard dialect, CONTAINS predicates are rendered as
    case-insensitive ``LIKE`` patterns so the output is executable on a
    vanilla SQL engine; the sqlite dialect keeps their exact executor
    semantics through registered user functions (see module docstring),
    preceded by whatever conjuncts *narrow* returns for the predicate.
    """
    select_list = (
        ", ".join(
            _target(alias, column, dialect) for alias, column in query.projection
        )
        if query.projection
        else "*"
    )
    distinct = "DISTINCT " if query.distinct and query.projection else ""
    sql = [f"SELECT {distinct}{select_list}"]
    if dialect == "sqlite":
        sql.append(
            "FROM "
            + ", ".join(
                quote_identifier(ref.table)
                + (
                    f" AS {quote_identifier(ref.alias)}"
                    if ref.alias != ref.table
                    else ""
                )
                for ref in query.tables
            )
        )
        conditions = [
            f"{_target(join.left_alias, join.left_column, dialect)} = "
            f"{_target(join.right_alias, join.right_column, dialect)}"
            for join in query.joins
        ]
    else:
        sql.append("FROM " + ", ".join(str(ref) for ref in query.tables))
        conditions = [str(join) for join in query.joins]
    for predicate in query.predicates:
        target = _target(predicate.alias, predicate.column, dialect)
        if predicate.op is Comparison.CONTAINS:
            if dialect == "sqlite":
                if narrow is not None:
                    conditions.extend(
                        narrow(
                            predicate.alias,
                            query.table_of(predicate.alias),
                            predicate.column,
                            predicate.value,
                        )
                    )
                expr = _text_expr(query, predicate.alias, predicate.column, schema)
                literal = render_literal(str(predicate.value), dialect)
                conditions.append(f"QUEST_CONTAINS({expr}, {literal})")
            else:
                pattern = f"%{predicate.value}%"
                conditions.append(
                    f"LOWER({target}) LIKE {render_literal(pattern.lower())}"
                )
        elif predicate.op is Comparison.LIKE:
            if dialect == "sqlite":
                expr = _text_expr(query, predicate.alias, predicate.column, schema)
                literal = render_literal(str(predicate.value), dialect)
                conditions.append(f"QUEST_LIKE({expr}, {literal})")
            else:
                conditions.append(
                    f"{target} LIKE {render_literal(predicate.value)}"
                )
        else:
            conditions.append(
                f"{target} {predicate.op.value} "
                f"{render_literal(predicate.value, dialect)}"
            )
    if conditions:
        sql.append("WHERE " + " AND ".join(conditions))
    if query.limit is not None:
        sql.append(f"LIMIT {query.limit}")
    return " ".join(sql)


def render_create_table(table: TableSchema) -> str:
    """Render ``CREATE TABLE`` DDL for one table."""
    lines = []
    for column in table.columns:
        null = "" if column.nullable else " NOT NULL"
        lines.append(f"  {column.name} {SQL_TYPE_NAMES[column.dtype]}{null}")
    lines.append(f"  PRIMARY KEY ({', '.join(table.primary_key)})")
    body = ",\n".join(lines)
    return f"CREATE TABLE {table.name} (\n{body}\n);"


def render_ddl(schema: Schema) -> str:
    """Render the full schema as DDL: tables then FK constraints."""
    statements = [render_create_table(table) for table in schema.tables]
    for fk in schema.foreign_keys:
        statements.append(
            f"ALTER TABLE {fk.table} ADD FOREIGN KEY ({fk.column}) "
            f"REFERENCES {fk.ref_table} ({fk.ref_column});"
        )
    return "\n\n".join(statements)
