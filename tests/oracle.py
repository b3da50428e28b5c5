"""The reference engine: every kernel call site rebound to its reference twin.

The engine has one implementation per job — vectorised List Viterbi,
batched emissions, bitmask Dempster combination, interned top-k Steiner
search behind a batched connectivity prefilter. Each kernel keeps a
separately named pure-Python twin (the executable specification), and
:func:`reference_kernels` swaps those twins in at the engine's call
sites with :func:`unittest.mock.patch`::

    with reference_kernels() as calls:
        want = engine.search_many(texts)
    assert all(calls.values())  # every twin was reached

Entering the context patches process-wide (the call sites are module
attributes), so an engine built before or inside the block runs on the
twins while the block is open. The yielded :class:`~collections.Counter`
counts calls per patched call site: a run that never reached a twin
proves nothing about it, so callers assert the counts they rely on.
Naming patch targets (keys of :data:`TWINS`) swaps in only those twins,
so one kernel can be checked end to end against the rest of the
production engine.

The prefilter "twin" answers "unknown" for every configuration, so each
reference Steiner call checks connectivity itself.

:func:`execute_reference` is the memory executor's twin: every local
predicate scans, and every join hash-builds on the whole candidate
relation, with no early stop — the executor before it learned index
nested loops. The join-parity tests hold the executor and the memory
backend's ``result_count`` to its rows, row order and counts.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from typing import Any, Callable, Iterator
from unittest import mock

from repro.db.database import Database
from repro.db.executor import ResultSet, _match
from repro.db.query import JoinCondition, SelectQuery
from repro.db.table import Row, Table
from repro.dst.combine import dempster_combine_reference
from repro.hmm import HiddenMarkovModel, list_viterbi_reference
from repro.steiner import top_k_steiner_trees_reference


def _unknown_connectivity(engine: Any, terminal_sets: list[list]) -> list[None]:
    return [None] * len(terminal_sets)


#: Patch target -> the reference twin bound there.
TWINS: dict[str, Callable[..., Any]] = {
    "repro.core.engine.list_viterbi": list_viterbi_reference,
    "repro.hmm.model.HiddenMarkovModel.emission_matrix": (
        HiddenMarkovModel.emission_matrix_reference
    ),
    "repro.pipeline.stages.dempster_combine": dempster_combine_reference,
    "repro.core.multisource.dempster_combine": dempster_combine_reference,
    "repro.pipeline.stages.top_k_steiner_trees": top_k_steiner_trees_reference,
    "repro.pipeline.stages.BackwardStage._prefilter_batched": _unknown_connectivity,
}


@contextlib.contextmanager
def reference_kernels(*targets: str) -> Iterator[Counter[str]]:
    """Run the engine on the reference twins (all, or only ``targets``);
    yield per-site call counts."""
    unknown = set(targets) - set(TWINS)
    if unknown:
        raise KeyError(f"no reference twin for {sorted(unknown)}")
    chosen = {t: TWINS[t] for t in targets} if targets else TWINS
    calls: Counter[str] = Counter({target: 0 for target in chosen})

    def counted(target: str, twin: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(twin)
        def call(*args: Any, **kwargs: Any) -> Any:
            calls[target] += 1
            return twin(*args, **kwargs)

        return call

    with contextlib.ExitStack() as stack:
        for target, twin in chosen.items():
            replacement: Any = counted(target, twin)
            if target.endswith("._prefilter_batched"):
                replacement = staticmethod(replacement)
            stack.enter_context(mock.patch(target, replacement))
        yield calls


# -- the executor's reference: scan, hash-join everything, project ----------


def execute_reference(db: Database, query: SelectQuery) -> ResultSet:
    """Evaluate *query* by scans and whole-relation hash joins."""
    tables: dict[str, Table] = {ref.alias: db.table(ref.table) for ref in query.tables}
    base_rows: dict[str, list[Row]] = {}
    for alias in query.aliases:
        table = tables[alias]
        local = [p for p in query.predicates if p.alias == alias]
        base_rows[alias] = [
            row
            for row in table.rows
            if all(_match(row[table.column_position(p.column)], p) for p in local)
        ]

    # Greedy join ordering: start from the most selective occurrence, then
    # repeatedly attach the connected occurrence with the fewest base rows.
    remaining = set(query.aliases)
    start = min(remaining, key=lambda alias: len(base_rows[alias]))
    remaining.discard(start)
    bound = [start]
    partials: list[dict[str, Row]] = [{start: row} for row in base_rows[start]]

    pending: list[JoinCondition] = list(query.joins)
    while remaining:
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
        partials = _hash_join(partials, alias, conditions, tables, base_rows[alias])
        remaining.discard(alias)
        bound.append(alias)
        pending = [c for c in pending if c not in conditions]

    # Residual join conditions between already-bound occurrences (cycles).
    for condition in pending:
        partials = [p for p in partials if _join_holds(p, condition, tables)]

    return _project(query, tables, partials)


def _pick_next(
    bound: list[str],
    remaining: set[str],
    pending: list[JoinCondition],
    base_rows: dict[str, list[Row]],
) -> tuple[str, list[JoinCondition]] | None:
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
    # Normalise conditions so the new occurrence is always on the right.
    normal = [c if c.right_alias == alias else c.reversed() for c in conditions]
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


def _join_holds(
    partial: dict[str, Row], condition: JoinCondition, tables: dict[str, Table]
) -> bool:
    left = partial[condition.left_alias][
        tables[condition.left_alias].column_position(condition.left_column)
    ]
    right = partial[condition.right_alias][
        tables[condition.right_alias].column_position(condition.right_column)
    ]
    return left is not None and left == right


def _project(
    query: SelectQuery, tables: dict[str, Table], partials: list[dict[str, Row]]
) -> ResultSet:
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

    rows: list[tuple[Any, ...]] = []
    seen: set[tuple[Any, ...]] = set()
    for partial in partials:
        row = tuple(partial[alias][position] for alias, position in positions)
        if query.distinct:
            if row in seen:
                continue
            seen.add(row)
        rows.append(row)
        if query.limit is not None and len(rows) >= query.limit:
            break
    return ResultSet(columns, rows)

