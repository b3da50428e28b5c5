"""Evaluation of logical queries against the in-memory database.

The executor implements a straightforward but index-aware strategy:

1. apply local predicates to each FROM occurrence: an equality predicate
   seeds the candidates from a hash-index point lookup; otherwise, when
   the caller hands in the full-text postings, CONTAINS predicates seed
   them from the intersection of their keyword tokens' posting lists;
   only without either does the occurrence scan. Every predicate is
   re-checked on the candidates, except a one-token CONTAINS keyword
   whose posting list seeded them: the list already decides it. An
   occurrence without local predicates reads the table's live rows in
   place;
2. join occurrences one at a time, always preferring an occurrence connected
   to the already-joined ones through an equi-join condition. An
   occurrence without local predicates that has more rows than there are
   partial tuples is attached by an index nested loop: one probe per
   partial tuple into the column index the table maintains across
   writes (:meth:`~repro.db.table.Table.ensure_index`). Every other
   occurrence is attached by a hash join that builds on its candidate
   rows. Once no partial tuple is left, the remaining joins, cross
   products and residual conditions are skipped;
3. project (optionally de-duplicating) and apply LIMIT — or, for
   :func:`result_count`, count the projected rows without materialising
   them.

Both join strategies emit the same rows in the same order: partial tuples
stay in order, and each one meets its matches in insertion order.

This supports everything the QUEST query builder emits: conjunctive
select-project-join queries with keyword (CONTAINS), LIKE and comparison
predicates. Disconnected FROM clauses fall back to cross products so the
executor is total over the query model.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Iterator, Sequence

from repro.db.database import Database
from repro.db.fulltext import tokenize_value
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery
from repro.db.schema import ColumnRef
from repro.db.table import Row, Table
from repro.errors import ExecutionError

__all__ = [
    "execute",
    "result_count",
    "ResultSet",
    "PostingLookup",
    "contains_match",
    "like_match",
]

#: ``lookup(token, ref)``: the sorted physical row positions whose
#: ``ref.column`` holds *token* under :func:`tokenize_value` — exactly
#: those, tombstoned positions aside, since a one-token CONTAINS is
#: decided by its list alone — or ``None`` when ``ref`` is not indexed
#: that way (its CONTAINS predicates scan).
PostingLookup = Callable[[str, ColumnRef], Sequence[int] | None]


class ResultSet:
    """Materialised query output: named columns plus row tuples."""

    def __init__(self, columns: tuple[str, ...], rows: list[tuple[Any, ...]]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by qualified column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


@lru_cache(maxsize=1024)
def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into an anchored regex.

    ``%`` matches any run of characters, ``_`` exactly one; a backslash
    escapes the next character, so ``100\\%`` matches the literal string
    ``100%``. The translation is direct — no fnmatch round trip — which
    keeps ``*``/``?``/``[`` in patterns literal, as SQL requires. DOTALL
    lets wildcards span newlines embedded in values.
    """
    out = []
    i = 0
    while i < len(pattern):
        char = pattern[i]
        if char == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def like_match(value: Any, pattern: Any) -> bool:
    """SQL LIKE over a stored value (NULL never matches).

    Shared by the in-memory executor and the SQLite backend (registered
    there as the ``QUEST_LIKE`` user function), so LIKE semantics are
    identical across storage backends by construction.
    """
    if value is None:
        return False
    return bool(_like_to_regex(str(pattern)).match(str(value)))


@lru_cache(maxsize=1024)
def _keyword_tokens(keyword: str) -> list[str]:
    # The keyword is a per-predicate constant evaluated once per row:
    # cache its tokenisation so scans pay the regex once, not N times.
    # Callers must not mutate the returned list.
    return tokenize_value(keyword)


def contains_match(value: Any, keyword: Any) -> bool:
    """CONTAINS: the keyword's tokens occur contiguously in the value.

    Matching is consistent with :func:`~repro.db.fulltext.tokenize_value`
    — the same tokenisation the full-text index applies — so a keyword
    matches a value through the executor exactly when it matches it
    through the index: ``lake`` matches ``Blue Lake`` but no longer
    matches ``Lakeland`` (a substring of a longer token). Multi-token
    keywords match as a phrase (contiguous token run). A keyword with no
    tokens at all (pure punctuation) matches nothing.
    """
    if value is None:
        return False
    needle = _keyword_tokens(str(keyword))
    if not needle:
        return False
    haystack = tokenize_value(value)
    span = len(needle)
    return any(
        haystack[start : start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def _match(value: Any, predicate: Predicate) -> bool:
    """Evaluate one predicate against a single column value."""
    op = predicate.op
    if op is Comparison.CONTAINS:
        return contains_match(value, predicate.value)
    if op is Comparison.LIKE:
        return like_match(value, predicate.value)
    if value is None:
        return False  # SQL three-valued logic: NULL comparisons are not true
    other = predicate.value
    try:
        if op is Comparison.EQ:
            return bool(value == other)
        if op is Comparison.NE:
            return bool(value != other)
        if op is Comparison.LT:
            return bool(value < other)
        if op is Comparison.LE:
            return bool(value <= other)
        if op is Comparison.GT:
            return bool(value > other)
        if op is Comparison.GE:
            return bool(value >= other)
    except TypeError as exc:
        raise ExecutionError(
            f"type mismatch evaluating {predicate}: {value!r}"
        ) from exc
    raise ExecutionError(f"unsupported operator: {op}")  # pragma: no cover


def _posting_candidates(
    table: Table, predicates: list[Predicate], postings: PostingLookup | None
) -> tuple[list[Row] | None, list[Predicate]]:
    """Rows in every CONTAINS token's posting list, and what they leave open.

    A row can satisfy ``CONTAINS(column, keyword)`` only if each of the
    keyword's tokens occurs in its value, i.e. only if it sits in each
    token's posting list for that column — so the live rows in the
    intersection, in insertion order, are a superset of the matches.
    The second element lists the predicates the caller must still check
    on them: all of them, except a CONTAINS predicate whose keyword is
    exactly one token and whose posting list took part. For that token
    :func:`contains_match` is membership in :func:`tokenize_value` of the
    value, which is what the list holds: the lookup tokenises the same
    values the same way (:data:`PostingLookup`), tombstoned positions
    are dropped here, and rows are never updated in place. A multi-token
    keyword is a phrase, so its lists only narrow and it stays.

    ``(None, predicates)`` (scan) without *postings* or when no CONTAINS
    predicate is on a column the lookup covers; ``([], ...)`` when a
    keyword has no tokens (it matches nothing).
    """
    if postings is None:
        return None, predicates
    lists: list[Sequence[int]] = []
    decided: list[Predicate] = []
    for predicate in predicates:
        if predicate.op is not Comparison.CONTAINS:
            continue
        tokens = _keyword_tokens(str(predicate.value))
        if not tokens:
            return [], predicates  # a keyword without tokens matches nothing
        ref = ColumnRef(table.name, predicate.column)
        for token in dict.fromkeys(tokens):
            found = postings(token, ref)
            if found is None:
                break
            lists.append(found)
        else:
            if len(tokens) == 1:
                decided.append(predicate)
    if not lists:
        return None, predicates
    lists.sort(key=len)
    narrowed = set(lists[0])
    for found in lists[1:]:
        narrowed.intersection_update(found)
    storage = table.storage_rows
    candidates = [
        storage[position]
        for position in sorted(narrowed)
        if not table.is_deleted(position)
    ]
    if decided:
        predicates = [p for p in predicates if not any(p is d for d in decided)]
    return candidates, predicates


def _filter_base(
    table: Table, predicates: list[Predicate], postings: PostingLookup | None
) -> list[Row]:
    """Rows of *table* satisfying all local *predicates*, in insertion order.

    Equality predicates on indexed values short-circuit through a hash
    index, and every other predicate is checked on its candidates;
    otherwise CONTAINS predicates seed the candidates from the posting
    lists, when given, and the check skips what those decide (see
    :func:`_posting_candidates`); everything else scans. Without
    predicates this is the table's live row list itself (read, never
    mutated).
    """
    equality = [p for p in predicates if p.op is Comparison.EQ]
    if equality:
        seed = equality[0]
        candidates = table.lookup(seed.column, seed.value)
        rest = [p for p in predicates if p is not seed]
    else:
        seeded, rest = _posting_candidates(table, predicates, postings)
        candidates = table.rows if seeded is None else seeded
    if not rest:
        return candidates
    positions = {p: table.column_position(p.column) for p in rest}
    return [
        row
        for row in candidates
        if all(_match(row[positions[p]], p) for p in rest)
    ]


def execute(
    db: Database, query: SelectQuery, postings: PostingLookup | None = None
) -> ResultSet:
    """Evaluate *query* against *db* and materialise the results.

    *postings* is the full-text index's lookup over the same *db* (see
    :data:`PostingLookup`); without it CONTAINS predicates scan.
    """
    tables, partials = _join(db, query, postings)
    columns, positions = _targets(query, tables)
    rows: list[tuple[Any, ...]] = []
    seen: set[tuple[Any, ...]] = set()
    for partial in partials:
        if query.limit is not None and len(rows) >= query.limit:
            break
        row = tuple([partial[alias][at] for alias, at in positions])
        if query.distinct:
            if row in seen:
                continue
            seen.add(row)
        rows.append(row)
    return ResultSet(columns, rows)


def result_count(
    db: Database, query: SelectQuery, postings: PostingLookup | None = None
) -> int:
    """Number of rows *query* returns (respecting DISTINCT and LIMIT).

    Counts what :func:`execute` would return without building its rows:
    the joined tuples, or for DISTINCT their distinct projections.
    """
    tables, partials = _join(db, query, postings)
    _columns, positions = _targets(query, tables)
    if query.distinct:
        count = len(
            {tuple([partial[alias][at] for alias, at in positions]) for partial in partials}
        )
    else:
        count = len(partials)
    return count if query.limit is None else min(count, query.limit)


def _join(
    db: Database, query: SelectQuery, postings: PostingLookup | None
) -> tuple[dict[str, Table], list[dict[str, Row]]]:
    """The FROM occurrences' tables and the joined partial tuples."""
    local: dict[str, list[Predicate]] = {alias: [] for alias in query.aliases}
    for predicate in query.predicates:
        local[predicate.alias].append(predicate)

    tables: dict[str, Table] = {
        ref.alias: db.table(ref.table) for ref in query.tables
    }
    base_rows: dict[str, list[Row]] = {
        alias: _filter_base(tables[alias], local[alias], postings)
        for alias in query.aliases
    }

    # Greedy join ordering: start from the most selective occurrence, then
    # repeatedly attach the connected occurrence with the fewest base rows.
    remaining = set(query.aliases)
    start = min(remaining, key=lambda alias: len(base_rows[alias]))
    remaining.discard(start)
    bound = [start]
    partials: list[dict[str, Row]] = [{start: row} for row in base_rows[start]]

    pending: list[JoinCondition] = list(query.joins)
    while remaining and partials:
        step = _pick_next(bound, remaining, pending, base_rows)
        if step is None:
            # Disconnected clause: cross product with the smallest remainder.
            alias = min(remaining, key=lambda a: len(base_rows[a]))
            partials = [
                {**partial, alias: row}
                for partial in partials
                for row in base_rows[alias]
            ]
            remaining.discard(alias)
            bound.append(alias)
            continue
        alias, conditions = step
        if not local[alias] and len(partials) < len(base_rows[alias]):
            partials = _index_join(partials, alias, conditions, tables)
        else:
            partials = _hash_join(
                partials, alias, conditions, tables, base_rows[alias]
            )
        remaining.discard(alias)
        bound.append(alias)
        pending = [c for c in pending if c not in conditions]

    # Residual join conditions between already-bound occurrences (cycles).
    if partials:
        for condition in pending:
            partials = [p for p in partials if _join_holds(p, condition, tables)]
    return tables, partials


def _pick_next(
    bound: list[str],
    remaining: set[str],
    pending: list[JoinCondition],
    base_rows: dict[str, list[Row]],
) -> tuple[str, list[JoinCondition]] | None:
    """Choose the next occurrence connected to the bound set, if any."""
    bound_set = set(bound)
    candidates: dict[str, list[JoinCondition]] = {}
    for condition in pending:
        left_in = condition.left_alias in bound_set
        right_in = condition.right_alias in bound_set
        if left_in and condition.right_alias in remaining:
            candidates.setdefault(condition.right_alias, []).append(condition)
        elif right_in and condition.left_alias in remaining:
            candidates.setdefault(condition.left_alias, []).append(condition)
    if not candidates:
        return None
    alias = min(candidates, key=lambda a: len(base_rows[a]))
    return alias, candidates[alias]


def _hash_join(
    partials: list[dict[str, Row]],
    alias: str,
    conditions: list[JoinCondition],
    tables: dict[str, Table],
    new_rows: list[Row],
) -> list[dict[str, Row]]:
    """Attach *alias* to each partial tuple through equi-join *conditions*."""
    # Normalise conditions so the new occurrence is always on the right.
    normal = [
        c if c.right_alias == alias else c.reversed() for c in conditions
    ]
    table = tables[alias]
    key_positions = tuple(table.column_position(c.right_column) for c in normal)
    build: dict[tuple[Any, ...], list[Row]] = {}
    for row in new_rows:
        key = tuple(row[p] for p in key_positions)
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(row)

    probe_positions = [
        (c.left_alias, tables[c.left_alias].column_position(c.left_column))
        for c in normal
    ]
    joined: list[dict[str, Row]] = []
    for partial in partials:
        key = tuple(partial[a][p] for a, p in probe_positions)
        for row in build.get(key, ()):
            extended = dict(partial)
            extended[alias] = row
            joined.append(extended)
    return joined


def _index_join(
    partials: list[dict[str, Row]],
    alias: str,
    conditions: list[JoinCondition],
    tables: dict[str, Table],
) -> list[dict[str, Row]]:
    """Attach unfiltered *alias* through an index nested loop.

    Each partial tuple probes the index on the first condition's column
    of *alias*; the other conditions are checked on the fetched rows.
    The matches are :func:`_hash_join`'s over the table's live rows, in
    the same order: a NULL on either side matches nothing, values compare
    as tuple elements do (identity, then ``==``), and an index bucket
    lists its positions in insertion order.
    """
    normal = [
        c if c.right_alias == alias else c.reversed() for c in conditions
    ]
    table = tables[alias]
    first, rest = normal[0], normal[1:]
    index = table.ensure_index(first.right_column)
    storage = table.storage_rows
    probe_alias = first.left_alias
    probe_at = tables[probe_alias].column_position(first.left_column)
    checks = [
        (
            c.left_alias,
            tables[c.left_alias].column_position(c.left_column),
            table.column_position(c.right_column),
        )
        for c in rest
    ]
    joined: list[dict[str, Row]] = []
    for partial in partials:
        key = partial[probe_alias][probe_at]
        if key is None:
            continue
        for position in index.get(key, ()):
            row = storage[position]
            if checks and not all(
                row[at] is not None
                and (row[at] is partial[a][p] or row[at] == partial[a][p])
                for a, p, at in checks
            ):
                continue
            extended = dict(partial)
            extended[alias] = row
            joined.append(extended)
    return joined


def _join_holds(
    partial: dict[str, Row], condition: JoinCondition, tables: dict[str, Table]
) -> bool:
    """Whether a residual (cycle-closing) join condition is satisfied."""
    left = partial[condition.left_alias][
        tables[condition.left_alias].column_position(condition.left_column)
    ]
    right = partial[condition.right_alias][
        tables[condition.right_alias].column_position(condition.right_column)
    ]
    return left is not None and left == right


def _targets(
    query: SelectQuery, tables: dict[str, Table]
) -> tuple[tuple[str, ...], list[tuple[str, int]]]:
    """Output column names and the ``(alias, row position)`` they read."""
    if query.projection:
        targets = list(query.projection)
    else:
        targets = [
            (alias, column)
            for alias in query.aliases
            for column in tables[alias].schema.column_names
        ]
    positions = [
        (alias, tables[alias].column_position(column)) for alias, column in targets
    ]
    columns = tuple(f"{alias}.{column}" for alias, column in targets)
    return columns, positions
