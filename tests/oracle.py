"""The reference engine: every kernel call site rebound to its reference twin.

The engine has one implementation per job — vectorised List Viterbi,
batched emissions, bitmask Dempster combination, interned top-k Steiner
search. Each kernel keeps a separately named pure-Python twin (the
executable specification), and
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

The Steiner search's optimality oracle lives here too:
:func:`exact_steiner_tree_reference` (Dreyfus-Wagner over per-node
Dijkstra maps, :func:`shortest_paths`) gives the minimum tree weight the
top-k search's first tree must reach, :func:`connected_reference`
is the breadth-first twin of the schema graph's component labels, and
:func:`terminal_leaved_tree_count_reference` and
:func:`terminal_leaved_tree_union_reference` are the brute-force twins of
the count that ends the top-k search early and of the node union that
bounds it when the count is under k (``topk._count_trees``).

:func:`execute_reference` is the memory executor's twin: every local
predicate scans, and every join hash-builds on the whole candidate
relation, with no early stop — the executor before it learned index
nested loops. The join-parity tests hold the executor and the memory
backend's ``result_count`` to its rows, row order and counts.

:func:`has_postings_reference` is the explain stage's postings check
switched off: it answers "undecided" for every token, so every
configuration is built and counted.

:class:`PostingsReference` is the full-text index's twin: brute-force
postings read straight from a database's live rows, with the index's
float expressions. The index-parity tests hold the in-memory
``FullTextIndex`` (sealed, after writes and freshly loaded) and SQLite's
``_quest_postings`` to its scores, row positions and existence answers.

:func:`term_score_reference` is the schema ontology's twin: one
keyword-identifier score computed from the two strings alone, re-stemming,
re-splitting and re-trigramming both for every pair, as the ontology did
before it derived each string's features once. The ontology-parity tests
hold ``term_score``, ``table_score`` and ``attribute_score`` to it bit for
bit.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Sequence
from unittest import mock

from repro.db.database import Database
from repro.db.executor import ResultSet, _match
from repro.db.fulltext import tokenize_value
from repro.db.query import JoinCondition, SelectQuery
from repro.db.schema import ColumnRef
from repro.db.table import Row, Table
from repro.dst.combine import dempster_combine_reference
from repro.errors import SteinerError
from repro.hmm import HiddenMarkovModel, list_viterbi_reference
from repro.semantics.lexicon import Lexicon
from repro.semantics.similarity import (
    jaro_winkler,
    token_set_similarity,
    trigram_similarity,
)
from repro.semantics.stemmer import same_stem, stem
from repro.semantics.tokenize import split_identifier
from repro.steiner import SchemaGraph, SteinerTree, top_k_steiner_trees_reference
from repro.wrapper.ontology import SchemaOntology


def has_postings_reference(wrapper: Any, token: str, ref: ColumnRef) -> None:
    """Decides nothing: the explain stage counts every configuration.

    The twin of ``FullAccessWrapper.has_postings``. With it the explain
    stage skips no configuration as provably empty, so every distinct
    query is built and counted, as before the postings check existed.
    """
    return None


#: Patch target -> the reference twin bound there.
TWINS: dict[str, Callable[..., Any]] = {
    "repro.core.engine.list_viterbi": list_viterbi_reference,
    "repro.hmm.model.HiddenMarkovModel.emission_matrix": (
        HiddenMarkovModel.emission_matrix_reference
    ),
    "repro.pipeline.stages.dempster_combine": dempster_combine_reference,
    "repro.core.multisource.dempster_combine": dempster_combine_reference,
    "repro.pipeline.stages.top_k_steiner_trees": top_k_steiner_trees_reference,
    "repro.wrapper.full.FullAccessWrapper.has_postings": (
        has_postings_reference
    ),
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
            stack.enter_context(mock.patch(target, counted(target, twin)))
        yield calls


# -- the Steiner oracle: Dreyfus-Wagner over Dijkstra, BFS connectivity ------

_INF = float("inf")


def connected_reference(graph: SchemaGraph, nodes: Iterable[ColumnRef]) -> bool:
    """Whether all *nodes* lie in one component, by breadth-first search
    over the live adjacency (the twin of ``SchemaGraph.connected``)."""
    nodes = set(nodes)
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour, _edge in graph.neighbors(current):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return nodes <= seen


def terminal_leaved_tree_count_reference(
    graph: SchemaGraph, terminals: Iterable[ColumnRef]
) -> int:
    """How many edge subsets of *graph* form a tree that contains every
    terminal and whose leaves are all terminals.

    Tries every subset (a lone terminal is the one edge-free tree), so it
    is for graphs of a dozen edges.
    """
    return sum(1 for _nodes in _terminal_leaved_trees(graph, terminals))


def terminal_leaved_tree_union_reference(
    graph: SchemaGraph, terminals: Iterable[ColumnRef]
) -> frozenset[ColumnRef]:
    """The nodes of all the trees :func:`terminal_leaved_tree_count_reference`
    counts, by the same brute force over edge subsets."""
    union: set[ColumnRef] = set()
    for nodes in _terminal_leaved_trees(graph, terminals):
        union |= nodes
    return frozenset(union)


def _terminal_leaved_trees(
    graph: SchemaGraph, terminals: Iterable[ColumnRef]
) -> Iterator[set[ColumnRef]]:
    """The node set of every edge subset of *graph* that is a tree
    containing every terminal with only terminal leaves."""
    terminal_set = set(terminals)
    edges = graph.edges
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            ends = Counter(node for edge in subset for node in (edge.left, edge.right))
            nodes = set(ends) or set(terminal_set)
            if len(nodes) != size + 1 or not terminal_set <= nodes:
                continue
            if any(degree == 1 and node not in terminal_set for node, degree in ends.items()):
                continue
            # size + 1 nodes and size edges: a tree exactly when connected.
            parent = {node: node for node in nodes}

            def root(node: ColumnRef) -> ColumnRef:
                while parent[node] != node:
                    node = parent[node]
                return node

            for edge in subset:
                parent[root(edge.left)] = root(edge.right)
            if len({root(node) for node in nodes}) == 1:
                yield nodes


def shortest_paths(
    graph: SchemaGraph, source: ColumnRef
) -> tuple[dict[ColumnRef, float], dict[ColumnRef, ColumnRef]]:
    """Dijkstra from *source*: distances and predecessor map.

    Determinism: when two shortest paths to a node tie on weight (exact
    float equality), the predecessor whose ``str(node)`` sorts first wins —
    so the predecessor map (and every tree expanded from it) depends only
    on the graph, never on neighbour iteration order. An earlier version
    compared against ``distance - 1e-15``, which silently kept whichever
    near-equal predecessor happened to be relaxed first.
    """
    distances: dict[ColumnRef, float] = {source: 0.0}
    predecessors: dict[ColumnRef, ColumnRef] = {}
    heap: list[tuple[float, int, ColumnRef]] = [(0.0, 0, source)]
    counter = 1
    settled: set[ColumnRef] = set()
    while heap:
        distance, _tie, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbour, edge in graph.neighbors(node):
            candidate = distance + edge.weight
            current = distances.get(neighbour, _INF)
            if candidate < current:
                distances[neighbour] = candidate
                predecessors[neighbour] = node
                heapq.heappush(heap, (candidate, counter, neighbour))
                counter += 1
            elif candidate == current and str(node) < str(
                predecessors[neighbour]
            ):
                predecessors[neighbour] = node
    return distances, predecessors


def _path_edges(
    graph: SchemaGraph,
    predecessors: dict[ColumnRef, ColumnRef],
    source: ColumnRef,
    target: ColumnRef,
) -> set:
    """Edges of the shortest path source -> target from a predecessor map."""
    edges = set()
    current = target
    while current != source:
        parent = predecessors.get(current)
        if parent is None:
            raise SteinerError(f"no path from {source} to {target}")
        edge = graph.edge_between(parent, current)
        if edge is None:  # pragma: no cover - predecessor map guarantees edge
            raise SteinerError(f"missing edge {parent} - {current}")
        edges.add(edge)
        current = parent
    return edges


def _checked_terminals(
    graph: SchemaGraph, terminals: Sequence[ColumnRef]
) -> list[ColumnRef]:
    terminal_list = sorted(set(terminals), key=str)
    if not terminal_list:
        raise SteinerError("no terminals")
    for terminal in terminal_list:
        if terminal not in graph:
            raise SteinerError(f"terminal not in graph: {terminal}")
    return terminal_list


def exact_steiner_tree_reference(
    graph: SchemaGraph, terminals: Sequence[ColumnRef]
) -> SteinerTree:
    """A minimum-weight Steiner tree by the Dreyfus-Wagner DP.

    Exponential in the number of terminals, polynomial in graph size;
    runs one Dijkstra per node and keys the DP by ``(terminal bitmask,
    ColumnRef)``. The optimality oracle for the top-k search's first tree.
    """
    terminal_list = _checked_terminals(graph, terminals)
    if len(terminal_list) == 1:
        return SteinerTree(frozenset(terminal_list), frozenset(), 0.0)
    if not connected_reference(graph, terminal_list):
        raise SteinerError(f"terminals are disconnected: {terminal_list}")

    # Single-source shortest paths from every node (graphs are small).
    nodes = graph.nodes
    sp_distance: dict[ColumnRef, dict[ColumnRef, float]] = {}
    sp_predecessor: dict[ColumnRef, dict[ColumnRef, ColumnRef]] = {}
    for node in nodes:
        distances, predecessors = shortest_paths(graph, node)
        sp_distance[node] = distances
        sp_predecessor[node] = predecessors

    t = len(terminal_list)
    full_mask = (1 << t) - 1
    # dp[(mask, v)] = cost of the best tree spanning terminals(mask) + {v}.
    dp: dict[tuple[int, ColumnRef], float] = {}
    back: dict[tuple[int, ColumnRef], tuple] = {}

    for i, terminal in enumerate(terminal_list):
        for node in nodes:
            distance = sp_distance[terminal].get(node, _INF)
            if distance < _INF:
                dp[(1 << i, node)] = distance
                back[(1 << i, node)] = ("walk-base", terminal, node)

    masks_by_bits: dict[int, list[int]] = {}
    for mask in range(1, full_mask + 1):
        masks_by_bits.setdefault(bin(mask).count("1"), []).append(mask)

    for bits in sorted(masks_by_bits):
        if bits < 2:
            continue
        for mask in masks_by_bits[bits]:
            # Merge step: split the terminal set at each node.
            merged: dict[ColumnRef, float] = {}
            submask = (mask - 1) & mask
            while submask > 0:
                other = mask ^ submask
                if submask < other:  # consider each unordered split once
                    for node in nodes:
                        left = dp.get((submask, node), _INF)
                        if left == _INF:
                            continue
                        right = dp.get((other, node), _INF)
                        if right == _INF:
                            continue
                        cost = left + right
                        if cost < merged.get(node, _INF) - 1e-15:
                            merged[node] = cost
                            back[(mask, node)] = ("merge", submask, other, node)
                submask = (submask - 1) & mask
            # Relaxation step: Dijkstra over the merged costs.
            heap = [(cost, str(node), node) for node, cost in merged.items()]
            heapq.heapify(heap)
            best: dict[ColumnRef, float] = dict(merged)
            settled: set[ColumnRef] = set()
            while heap:
                cost, _tie, node = heapq.heappop(heap)
                if node in settled or cost > best.get(node, _INF) + 1e-15:
                    continue
                settled.add(node)
                for neighbour, edge in graph.neighbors(node):
                    candidate = cost + edge.weight
                    if candidate < best.get(neighbour, _INF) - 1e-15:
                        best[neighbour] = candidate
                        back[(mask, neighbour)] = ("walk", mask, node, neighbour)
                        heapq.heappush(heap, (candidate, str(neighbour), neighbour))
            for node, cost in best.items():
                dp[(mask, node)] = cost

    root = terminal_list[0]
    total = dp.get((full_mask, root), _INF)
    if total == _INF:  # pragma: no cover - connectivity checked above
        raise SteinerError("no Steiner tree found despite connected terminals")

    edges = _reconstruct(graph, back, sp_predecessor, full_mask, root)
    return SteinerTree(frozenset(terminal_list), frozenset(edges), _tree_weight(edges))


def _tree_weight(edges: set) -> float:
    # Sum in a canonical edge order: reconstruction builds the edge *set*
    # in implementation-dependent order, and float addition order would
    # otherwise leak into the reported weight's last ulp.
    return sum(
        edge.weight
        for edge in sorted(edges, key=lambda e: (str(e.left), str(e.right)))
    )


def _reconstruct(
    graph: SchemaGraph,
    back: dict[tuple[int, ColumnRef], tuple],
    sp_predecessor: dict[ColumnRef, dict[ColumnRef, ColumnRef]],
    mask: int,
    node: ColumnRef,
) -> set:
    """Walk the backpointers, collecting concrete tree edges."""
    edges: set = set()
    stack: list[tuple[int, ColumnRef]] = [(mask, node)]
    while stack:
        state = stack.pop()
        decision = back.get(state)
        if decision is None:
            continue  # base case: terminal reached at itself (zero cost)
        tag = decision[0]
        if tag == "walk-base":
            _t, terminal, target = decision
            edges |= _path_edges(graph, sp_predecessor[terminal], terminal, target)
        elif tag == "merge":
            _t, submask, other, at = decision
            stack.append((submask, at))
            stack.append((other, at))
        elif tag == "walk":
            _t, walk_mask, from_node, to_node = decision
            edge = graph.edge_between(from_node, to_node)
            if edge is not None:
                edges.add(edge)
            stack.append((walk_mask, from_node))
        else:  # pragma: no cover - exhaustive tags
            raise SteinerError(f"corrupt backpointer: {decision}")
    return edges


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



# -- the ontology's reference: today's pairwise string formula --------------


def term_similarity_reference(keyword: str, term: str) -> float:
    """Keyword-to-term similarity straight from the two strings.

    The twin of :func:`repro.semantics.similarity.feature_similarity`:
    every stem, split and trigram set is recomputed for the pair.
    """
    keyword_folded = keyword.casefold().strip()
    term_folded = term.casefold().strip()
    if not keyword_folded or not term_folded:
        return 0.0
    if keyword_folded == term_folded:
        return 1.0
    if same_stem(keyword_folded, term_folded):
        return 0.95
    return max(
        token_set_similarity(keyword_folded, term_folded),
        jaro_winkler(keyword_folded, term_folded) * 0.9,
        trigram_similarity(keyword_folded, term_folded) * 0.9,
    )


def relatedness_reference(lexicon: Lexicon, left: str, right: str) -> float:
    """Lexicon relatedness straight from the two strings (the twin of
    :meth:`repro.semantics.lexicon.Lexicon.feature_relatedness`)."""
    left_stem, right_stem = stem(left), stem(right)
    if left_stem == right_stem:
        return 1.0
    if lexicon.are_synonyms(left_stem, right_stem):
        return 0.9
    ups_left = lexicon._hypernyms.get(left_stem, set())
    ups_right = lexicon._hypernyms.get(right_stem, set())
    if right_stem in ups_left or left_stem in ups_right:
        return 0.7
    if ups_left & ups_right:
        return 0.5
    return 0.0


def term_score_reference(
    ontology: SchemaOntology, keyword: str, term: str, partial_scale: float = 0.9
) -> float:
    """One keyword-identifier score, every feature derived for the pair.

    The maximum of string similarity, lexicon relatedness and the
    *partial_scale*-discounted best relatedness to one of the identifier's
    word parts. ``SchemaOntology.term_score`` and its scorers' table and
    attribute scores (0.7 and 0.9 partial scales, maximised over name and
    synonyms) must equal it bit for bit.
    """
    lexicon = ontology.lexicon
    direct = term_similarity_reference(keyword, term)
    semantic = relatedness_reference(lexicon, keyword, term)
    part_scores = [
        relatedness_reference(lexicon, keyword, part)
        for part in split_identifier(term)
    ]
    partial = partial_scale * max(part_scores, default=0.0)
    return max(direct, semantic, partial)


# -- the full-text oracle: postings from the live rows ------------------------


class PostingsReference:
    """Brute-force postings of *db*, built from its live rows once.

    ``postings`` maps term -> field -> {row position: tf}, taken with
    ``tokenize_value`` from every live row of ``Table.rows`` at its
    physical position (``storage_rows`` minus tombstones, which is what
    the positions of both backends' indexes speak in). ``field_sizes``
    counts each field's indexed (non-empty) values: the tf denominator.
    Scores are the index's expressions over the same integers, so the
    parity tests compare bit for bit. A later mutation of *db* is not
    seen: build a new reference after it.
    """

    def __init__(self, db: Database) -> None:
        self.postings: dict[str, dict[ColumnRef, dict[int, int]]] = {}
        self.field_sizes: dict[ColumnRef, int] = {}
        for table in db.tables:
            for column in table.schema.columns:
                ref = ColumnRef(table.name, column.name)
                self.field_sizes[ref] = 0
                at = table.column_position(column.name)
                for position, row in enumerate(table.storage_rows):
                    if table.is_deleted(position):
                        continue
                    tokens = tokenize_value(row[at])
                    if not tokens:
                        continue
                    self.field_sizes[ref] += 1
                    for term, tf in Counter(tokens).items():
                        by_field = self.postings.setdefault(term, {})
                        by_field.setdefault(ref, {})[position] = tf

    def __contains__(self, term: str) -> bool:
        return term.casefold() in self.postings

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)

    def idf(self, term: str) -> float:
        """``log(1 + fields / fields holding term)``; *term* must be held."""
        return math.log(1.0 + len(self.field_sizes) / len(self.postings[term]))

    def attribute_scores(self, keyword: str) -> dict[ColumnRef, float]:
        """tf * idf per field holding *keyword*; tf = matches / field size."""
        term = keyword.casefold()
        if term not in self.postings:
            return {}
        idf = self.idf(term)
        return {
            ref: (len(rows) / self.field_sizes[ref]) * idf
            for ref, rows in self.postings[term].items()
        }

    def matching_row_positions(self, keyword: str, ref: ColumnRef) -> list[int]:
        return sorted(self.postings.get(keyword.casefold(), {}).get(ref, {}))

    def has_postings(self, token: str, ref: ColumnRef) -> bool | None:
        """Whether a live row of ``ref`` holds *token*; ``None`` off the index."""
        if ref not in self.field_sizes:
            return None
        return ref in self.postings.get(token, {})
