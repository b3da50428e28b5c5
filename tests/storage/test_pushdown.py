"""SQL pushdown parity: CTE answers must equal the in-memory answers.

Three pushdown surfaces, each compared against the shared in-memory
implementation on the same mondial data:

* ``connected_nodes`` — recursive reachability CTE vs BFS;
* ``join_path_candidates`` — bounded recursive CTE enumeration vs the
  in-memory ``enumerate_join_paths`` (orderings and costs included);
* ``result_count(query)`` — the Explain stage's ``COUNT(*)`` must equal
  the in-memory count.
"""

import itertools

import pytest

from repro.core import Quest
from repro.datasets import mondial
from repro.steiner.weights import build_schema_graph
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper


@pytest.fixture(scope="module")
def pushdown_pair():
    db = mondial.generate(countries=10, seed=29)
    memory = create_backend("memory", db)
    sqlite = create_backend("sqlite", db)
    graph = build_schema_graph(memory.schema, memory.catalog)
    return db, memory, sqlite, graph


def test_sqlite_advertises_pushdown(pushdown_pair):
    _db, memory, sqlite, _graph = pushdown_pair
    assert sqlite.supports_graph_pushdown
    assert not memory.supports_graph_pushdown


def test_connected_nodes_cte_matches_bfs(pushdown_pair):
    _db, memory, sqlite, graph = pushdown_pair
    for start in graph.nodes:
        assert sqlite.connected_nodes(graph, start) == memory.connected_nodes(
            graph, start
        )


def test_connected_nodes_unknown_start_empty(pushdown_pair):
    _db, memory, sqlite, graph = pushdown_pair
    from repro.db import ColumnRef

    ghost = ColumnRef("no_such_table", "no_such_column")
    assert sqlite.connected_nodes(graph, ghost) == set()
    assert memory.connected_nodes(graph, ghost) == set()


@pytest.mark.parametrize("k,max_hops", [(1, 2), (3, 3), (5, 4)])
def test_join_path_candidates_cte_matches_memory(pushdown_pair, k, max_hops):
    """Same paths, same costs, same order — including self-pairs."""
    _db, memory, sqlite, graph = pushdown_pair
    nodes = sorted(graph.nodes, key=str)[:7]
    pairs = list(itertools.combinations(nodes, 2)) + [(nodes[0], nodes[0])]
    assert sqlite.join_path_candidates(
        graph, pairs, k, max_hops
    ) == memory.join_path_candidates(graph, pairs, k, max_hops)


def test_graph_sync_tracks_mutations(pushdown_pair):
    """The edge mirror refreshes when the graph version moves."""
    db, _memory, _sqlite, _graph = pushdown_pair
    sqlite = create_backend("sqlite", db)
    memory = create_backend("memory", db)
    graph = build_schema_graph(sqlite.schema, sqlite.catalog)
    start = graph.nodes[0]
    before = sqlite.connected_nodes(graph, start)
    left, right = graph.nodes[0], graph.nodes[-1]
    edge = graph.edge_between(left, right)
    weight = 0.05 if edge is None else edge.weight / 2
    graph.add_edge(left, right, weight, "intra")
    after = sqlite.connected_nodes(graph, start)
    assert after == memory.connected_nodes(graph, start)
    assert before <= after  # reachability only grows with an extra edge


# -- counting ----------------------------------------------------------------


@pytest.fixture(scope="module")
def explain_queries(pushdown_pair):
    """Real generated queries, straight from a full search."""
    db, _memory, _sqlite, _graph = pushdown_pair
    engine = Quest(FullAccessWrapper(create_backend("memory", db)))
    texts = [q.text for q in mondial.workload(db, queries_per_kind=2, seed=31)]
    queries = []
    for text in texts:
        for explanation in engine.search(text):
            queries.append(explanation.query)
    assert queries
    return queries


def test_unbounded_count_unchanged(pushdown_pair, explain_queries):
    _db, memory, sqlite, _graph = pushdown_pair
    for query in explain_queries:
        assert sqlite.result_count(query) == memory.result_count(query)
