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
- ``"sqlite"`` — SQL executed by the SQLite storage backend, returned as
  ``(sql, params)``: every value (CONTAINS/LIKE keywords, comparison
  constants, a narrowing's values) is a ``?`` placeholder bound from
  ``params``, and only identifiers (quoted) and ``LIMIT`` are inline.
  CONTAINS/LIKE render as calls to the ``QUEST_CONTAINS``/``QUEST_LIKE``
  user functions the backend registers on its connection (the exact
  Python predicates of :mod:`repro.db.executor`, so predicate semantics
  are identical across backends by construction); DATE values bind as
  ISO strings and BOOLEAN values as ``1``/``0``, matching the backend's
  storage encoding. BOOLEAN columns under CONTAINS/LIKE are unwrapped to
  their ``True``/``False`` text rendering via CASE, which is why the
  sqlite dialect accepts an optional schema.

The sqlite text is a function of the query's :class:`StatementShape` —
tables, joins, projection, DISTINCT, LIMIT and, per predicate, its
alias, column, operator and narrowing — so a backend renders each shape
once (:func:`render_shape`) and binds the values of every query of that
shape (:func:`sqlite_shape`); :func:`render_sql` is the two together.

A per-row ``QUEST_CONTAINS`` call is the exact check, not the access
path: the caller may pass a *narrow* hook whose :class:`Narrowing`
conjuncts are placed ahead of each CONTAINS call. The SQLite backend
uses it to restrict the predicate's alias to the keyword tokens' posting
lists, so the engine seeks matching rows through its indexes and runs
the exact check only on them — or not at all, where the narrowing says
it already decides the predicate (``exact``). What the conjuncts say —
the postings relation, its layout — stays in the backend; this renderer
knows only where they go.
"""

from __future__ import annotations

from datetime import date
from typing import Any, Callable, NamedTuple

from repro.db.query import Comparison, JoinCondition, SelectQuery, TableRef
from repro.db.schema import Schema, TableSchema
from repro.db.types import DataType, SQL_TYPE_NAMES

__all__ = [
    "ContainsNarrowing",
    "Narrowing",
    "StatementShape",
    "quote_identifier",
    "render_sql",
    "render_shape",
    "render_literal",
    "sqlite_shape",
    "sqlite_value",
    "render_create_table",
    "render_ddl",
]


def render_literal(value: Any) -> str:
    """Render a Python value as a standard-dialect SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, date):
        return f"DATE '{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def sqlite_value(value: Any) -> Any:
    """A Python value as SQLite stores and binds it (bool -> int, date -> ISO text)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, date):
        return value.isoformat()
    return value


def quote_identifier(identifier: str) -> str:
    """Double-quote an identifier so reserved words stay usable as names."""
    return '"' + identifier.replace('"', '""') + '"'


def _target(alias: str, column: str) -> str:
    """Render ``alias.column`` for the sqlite dialect, quoting both parts."""
    return f"{quote_identifier(alias)}.{quote_identifier(column)}"


def _text_expr(table: str, alias: str, column: str, schema: Schema | None) -> str:
    """The expression a text predicate evaluates over, for the sqlite dialect.

    Booleans are stored as integers in SQLite, but the in-memory executor
    text-matches their Python rendering (``True``/``False``); the CASE
    keeps both backends matching the same strings. NULL stays NULL.
    """
    target = _target(alias, column)
    if schema is None:
        return target
    if schema.table(table).column(column).dtype is DataType.BOOLEAN:
        return f"(CASE {target} WHEN 1 THEN 'True' WHEN 0 THEN 'False' END)"
    return target


class Narrowing(NamedTuple):
    """A backend's restriction of one CONTAINS predicate.

    Attributes:
        conjuncts: SQL conditions placed ahead of the exact check, with
            ``?`` placeholders for their values.
        params: the conjuncts' values, in placeholder order.
        exact: whether the conjuncts alone decide the predicate; the
            ``QUEST_CONTAINS`` call (and its keyword value) is then left
            out.
    """

    conjuncts: tuple[str, ...]
    params: tuple[Any, ...]
    exact: bool


#: ``narrow(alias, table, column, keyword)``: how a backend restricts a
#: CONTAINS predicate, or ``None`` to leave it to the exact check alone.
ContainsNarrowing = Callable[[str, str, str, Any], Narrowing | None]


class StatementShape(NamedTuple):
    """Everything the sqlite dialect's text depends on, values excluded.

    Queries with equal shapes render to the same statement and differ
    only in their bound values. ``predicates`` holds one ``(alias,
    column, op, conjuncts, exact)`` per WHERE predicate, where
    ``conjuncts`` and ``exact`` come from the predicate's
    :class:`Narrowing` (``()`` and ``False`` without one).
    """

    tables: tuple[TableRef, ...]
    joins: tuple[JoinCondition, ...]
    projection: tuple[tuple[str, str], ...]
    distinct: bool
    limit: int | None
    predicates: tuple[tuple[str, str, Comparison, tuple[str, ...], bool], ...]


def sqlite_shape(
    query: SelectQuery, narrow: ContainsNarrowing | None = None
) -> tuple[StatementShape, list[Any]]:
    """The sqlite dialect's shape of *query* and the values it binds.

    Values come in placeholder order. Per predicate, that is:
    - for CONTAINS, its narrowing's values, then its keyword unless the
      narrowing is exact;
    - for LIKE, its pattern;
    - otherwise, its constant in SQLite's storage encoding.
    """
    predicates = []
    params: list[Any] = []
    for predicate in query.predicates:
        op = predicate.op
        conjuncts: tuple[str, ...] = ()
        exact = False
        if op is Comparison.CONTAINS:
            narrowing = (
                None
                if narrow is None
                else narrow(
                    predicate.alias,
                    query.table_of(predicate.alias),
                    predicate.column,
                    predicate.value,
                )
            )
            if narrowing is not None:
                conjuncts, values, exact = narrowing
                params.extend(values)
            if not exact:
                params.append(str(predicate.value))
        elif op is Comparison.LIKE:
            params.append(str(predicate.value))
        else:
            params.append(sqlite_value(predicate.value))
        predicates.append((predicate.alias, predicate.column, op, conjuncts, exact))
    shape = StatementShape(
        query.tables,
        query.joins,
        query.projection,
        query.distinct,
        query.limit,
        tuple(predicates),
    )
    return shape, params


def render_shape(shape: StatementShape, schema: Schema | None = None) -> str:
    """The sqlite dialect's statement text for *shape*, values as ``?``."""
    tables = {ref.alias: ref.table for ref in shape.tables}
    select_list = (
        ", ".join(_target(alias, column) for alias, column in shape.projection)
        if shape.projection
        else "*"
    )
    distinct = "DISTINCT " if shape.distinct and shape.projection else ""
    sql = [
        f"SELECT {distinct}{select_list}",
        "FROM "
        + ", ".join(
            quote_identifier(ref.table)
            + (f" AS {quote_identifier(ref.alias)}" if ref.alias != ref.table else "")
            for ref in shape.tables
        ),
    ]
    conditions = [
        f"{_target(join.left_alias, join.left_column)} = "
        f"{_target(join.right_alias, join.right_column)}"
        for join in shape.joins
    ]
    for alias, column, op, conjuncts, exact in shape.predicates:
        if op is Comparison.CONTAINS:
            conditions.extend(conjuncts)
            if not exact:
                expr = _text_expr(tables[alias], alias, column, schema)
                conditions.append(f"QUEST_CONTAINS({expr}, ?)")
        elif op is Comparison.LIKE:
            expr = _text_expr(tables[alias], alias, column, schema)
            conditions.append(f"QUEST_LIKE({expr}, ?)")
        else:
            conditions.append(f"{_target(alias, column)} {op.value} ?")
    if conditions:
        sql.append("WHERE " + " AND ".join(conditions))
    if shape.limit is not None:
        sql.append(f"LIMIT {shape.limit}")
    return " ".join(sql)


def render_sql(
    query: SelectQuery,
    dialect: str = "standard",
    schema: Schema | None = None,
    narrow: ContainsNarrowing | None = None,
) -> Any:
    """Render a :class:`SelectQuery` as a single-line SQL statement.

    The standard dialect returns the statement text, with values as
    literals and CONTAINS predicates as case-insensitive ``LIKE``
    patterns, so the output is executable on a vanilla SQL engine. The
    sqlite dialect returns ``(sql, params)``: :func:`render_shape` of the
    query's :func:`sqlite_shape`, and the values to bind. It keeps the
    predicates' exact executor semantics through registered user
    functions (see module docstring), preceded by whatever narrowing
    *narrow* returns for each CONTAINS predicate.
    """
    if dialect == "sqlite":
        shape, params = sqlite_shape(query, narrow)
        return render_shape(shape, schema), params
    select_list = (
        ", ".join(f"{alias}.{column}" for alias, column in query.projection)
        if query.projection
        else "*"
    )
    distinct = "DISTINCT " if query.distinct and query.projection else ""
    sql = [
        f"SELECT {distinct}{select_list}",
        "FROM " + ", ".join(str(ref) for ref in query.tables),
    ]
    conditions = [str(join) for join in query.joins]
    for predicate in query.predicates:
        target = f"{predicate.alias}.{predicate.column}"
        if predicate.op is Comparison.CONTAINS:
            pattern = f"%{predicate.value}%"
            conditions.append(
                f"LOWER({target}) LIKE {render_literal(pattern.lower())}"
            )
        elif predicate.op is Comparison.LIKE:
            conditions.append(f"{target} LIKE {render_literal(predicate.value)}")
        else:
            conditions.append(
                f"{target} {predicate.op.value} {render_literal(predicate.value)}"
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
