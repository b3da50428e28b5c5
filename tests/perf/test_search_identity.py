"""End-to-end ranking identity: the engine vs its reference kernels.

The whole point of the numeric kernels is that they change latency, never
answers: a full mondial ``search_many`` workload must return *identical*
explanation lists — same SQL, same probabilities float for float, same
order — whether the engine decodes/enumerates/combines on its production
kernels or, under :func:`tests.oracle.reference_kernels`, on the retained
pure-Python twins.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiSourceQuest, Quest
from repro.datasets import mondial
from repro.db import Column, ColumnRef, Schema, TableSchema
from repro.db.types import DataType
from repro.errors import SteinerError
from repro.steiner import SchemaGraph
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper, HiddenSourceWrapper

from tests.conftest import TEST_BACKEND, backend_for
from tests.oracle import connected_reference, reference_kernels


@pytest.fixture(scope="module")
def mondial_pair():
    db = mondial.generate(countries=10, seed=29)
    workload = mondial.workload(db, queries_per_kind=2, seed=31)
    optimised = Quest(FullAccessWrapper(backend_for(db)))
    reference = Quest(FullAccessWrapper(backend_for(db)))
    return workload, optimised, reference


def test_search_many_rankings_identical(mondial_pair):
    workload, optimised, reference = mondial_pair
    texts = [q.text for q in workload][:8]
    fast = optimised.search_many(texts, strict=False)
    with reference_kernels():
        slow = reference.search_many(texts, strict=False)
    assert len(fast) == len(slow)
    for fast_answers, slow_answers in zip(fast, slow):
        assert len(fast_answers) == len(slow_answers)
        for fast_explanation, slow_explanation in zip(fast_answers, slow_answers):
            assert fast_explanation.sql == slow_explanation.sql
            assert (
                fast_explanation.probability == slow_explanation.probability
            )  # bit identity
            assert (
                fast_explanation.result_count == slow_explanation.result_count
            )
            assert fast_explanation == slow_explanation


def test_stage_products_identical(mondial_pair):
    """Per-stage outputs (not just final answers) agree on both paths."""
    workload, optimised, reference = mondial_pair
    keywords = optimised.keywords_of(next(iter(workload)).text)
    fast_configurations = optimised.forward(keywords)
    fast_interpretations = optimised.backward(fast_configurations)
    fast_ranked = optimised.combine(fast_configurations, fast_interpretations)
    with reference_kernels():
        slow_configurations = reference.forward(keywords)
        slow_interpretations = reference.backward(slow_configurations)
        slow_ranked = reference.combine(slow_configurations, slow_interpretations)
    assert fast_configurations == slow_configurations
    assert [c.score for c in fast_configurations] == [
        c.score for c in slow_configurations
    ]
    assert fast_interpretations == slow_interpretations
    assert [i.tree.weight for i in fast_interpretations] == [
        i.tree.weight for i in slow_interpretations
    ]
    assert fast_ranked == slow_ranked
    assert [i.score for i in fast_ranked] == [i.score for i in slow_ranked]


#: Every kernel call site of the engine: the oracle must patch each one,
#: and the mondial run below must reach each one.
CALL_SITES = {
    "repro.core.engine.list_viterbi",
    "repro.hmm.model.HiddenMarkovModel.emission_matrix",
    "repro.pipeline.stages.dempster_combine",
    "repro.core.multisource.dempster_combine",
    "repro.pipeline.stages.top_k_steiner_trees",
}


def _oracle_rankings(db, texts: list[str], backend: str):
    """``(sql, probability, result_count)`` per answer: single-source
    ``search_many`` answers, then a two-source (full + hidden) ranking."""
    engine = Quest(FullAccessWrapper(create_backend(backend, db)))
    single = [
        [(e.sql, e.probability, e.result_count) for e in answers]
        for answers in engine.search_many(texts, strict=False)
    ]
    multi = MultiSourceQuest(
        {
            "full": engine,
            "hidden": Quest(HiddenSourceWrapper(db.schema, remote_db=db)),
        },
        max_workers=1,
    )
    combined = [
        [(name, e.sql, e.probability, e.result_count) for name, e in multi.search(text)]
        for text in texts[:3]
    ]
    return single, combined


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_reference_oracle_rankings_identical(backend: str):
    db = mondial.generate(countries=10, seed=29)
    texts = [q.text for q in mondial.workload(db, queries_per_kind=2, seed=31)]
    want = _oracle_rankings(db, texts, backend)
    with reference_kernels() as calls:
        got = _oracle_rankings(db, texts, backend)
    assert got == want
    assert any(want[0]) and any(want[1])
    # A twin the run never reached proves nothing about its call site.
    assert set(calls) == CALL_SITES
    assert all(count > 0 for count in calls.values()), dict(calls)


def test_prefilter_agrees_with_graph_connectivity():
    """Every configuration of a mondial workload: the component-label
    verdict the backward stage filters on is breadth-first search's
    answer, on a fresh snapshot and on the same snapshot read again; a
    node outside the graph is refused rather than answered."""
    db = mondial.generate(countries=10, seed=29)
    engine = Quest(FullAccessWrapper(backend_for(db)))
    graph = engine.schema_graph
    terminal_sets = []
    for query in mondial.workload(db, queries_per_kind=2, seed=31):
        for configuration in engine.forward(engine.keywords_of(query.text)):
            terminal_sets.append(
                sorted(configuration.terminals(engine.schema), key=str)
            )
    assert terminal_sets
    want = [connected_reference(graph, terminals) for terminals in terminal_sets]
    assert True in want
    compact = graph.compact()
    for _pass in ("cold", "warm"):
        assert graph.compact() is compact
        assert [compact.connected(terminals) for terminals in terminal_sets] == want
        assert [graph.connected(terminals) for terminals in terminal_sets] == want
    outside = ColumnRef("no_such_table", "no_such_column")
    assert outside not in graph
    assert compact.connected([])
    for unknown in ([outside], [terminal_sets[0][0], outside]):
        with pytest.raises(SteinerError):
            compact.connected(unknown)


def test_prefilter_agrees_on_disconnected_graphs():
    """Sparse random graphs (mondial's graph is one component): the
    component labels answer ``False`` exactly where breadth-first search
    finds the terminals in different components."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        graph = _sparse_graph(rng)
        nodes = list(graph.nodes)
        sets = [
            sorted(rng.sample(nodes, rng.randint(1, min(4, len(nodes)))), key=str)
            for _ in range(6)
        ]
        want = [connected_reference(graph, terminals) for terminals in sets]
        assert [graph.compact().connected(terminals) for terminals in sets] == want
        seen.update(want)
    assert seen == {True, False}


def _sparse_graph(rng: random.Random) -> SchemaGraph:
    """A random graph with few edges, so it usually has several components."""
    n = rng.randint(3, 10)
    columns = tuple(Column(f"c{i}", DataType.TEXT) for i in range(n))
    graph = SchemaGraph(Schema(tables=[TableSchema("t", columns, ("c0",))]))
    nodes = list(graph.nodes)
    for _ in range(rng.randint(0, n)):
        left, right = rng.sample(nodes, 2)
        if graph.edge_between(left, right) is None:
            graph.add_edge(left, right, rng.uniform(0.1, 2.0), "intra")
    return graph


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_component_labels_match_bfs_connectivity(seed: int):
    """``SchemaGraph.connected`` (component labels) equals a breadth-first
    search on random sparse graphs, for connected and disconnected sets,
    before and after an ``add_edge`` that merges two components. A
    snapshot retained from before the edge keeps its old answer."""
    rng = random.Random(seed)
    graph = _sparse_graph(rng)
    nodes = list(graph.nodes)
    groups: list[list[ColumnRef]] = []  # components, by breadth-first search
    for node in nodes:
        for group in groups:
            if connected_reference(graph, [group[0], node]):
                group.append(node)
                break
        else:
            groups.append([node])
    sets = [rng.sample(nodes, rng.randint(1, min(4, len(nodes)))) for _ in range(4)]
    sets += [[], rng.sample(rng.choice(groups), 1)]
    home = max(groups, key=len)
    sets.append(rng.sample(home, min(3, len(home))))  # connected
    if len(groups) >= 2:
        first, second = rng.sample(groups, 2)
        sets.append([rng.choice(first), rng.choice(second)])  # disconnected
    verdicts = [connected_reference(graph, terminals) for terminals in sets]
    assert True in verdicts
    assert (False in verdicts) == (len(groups) >= 2)
    assert [graph.connected(terminals) for terminals in sets] == verdicts

    if len(groups) < 2:
        return
    left, right = rng.choice(first), rng.choice(second)
    before = graph.compact()
    assert not before.connected([left, right])
    graph.add_edge(left, right, rng.uniform(0.1, 2.0), "intra")
    assert graph.connected([left, right])
    assert graph.compact() is not before
    assert not before.connected([left, right])
    assert [graph.connected(terminals) for terminals in sets] == [
        connected_reference(graph, terminals) for terminals in sets
    ]


#: One process's rankings of a mondial gold subset, as JSON on stdout:
#: per query the full ``ranked`` list (``str`` and ``repr`` of the score)
#: and the explanation payload the serving tier sends.
_RANK_IN_PROCESS = """
import json, sys
from repro.core import Quest
from repro.datasets import mondial
from repro.service.http import explanation_payload
from repro.steiner import SchemaGraph
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper

db = mondial.generate(countries=12, seed=29)
gold = list(mondial.workload(db, queries_per_kind=3, seed=31))[:12]
engine = Quest(FullAccessWrapper(create_backend(sys.argv[1], db)))
out = []
for query in gold:
    context = engine.search_context(query.text)
    out.append({
        "ranked": [[str(i), repr(i.score)] for i in context.ranked],
        "explanations": explanation_payload(tuple(context.explanations)),
    })
sys.stdout.write(json.dumps(out))
"""


def _rank_under_hash_seed(seed: int) -> bytes:
    src = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _RANK_IN_PROCESS, TEST_BACKEND],
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_rankings_do_not_depend_on_the_hash_seed():
    """Hypothesis bits follow creation order, not a salted set's order:
    two processes with different string-hash salts rank byte-identically."""
    first = _rank_under_hash_seed(1)
    assert b'"ranked": [["Interpretation(' in first
    assert _rank_under_hash_seed(2) == first
