"""Parity of the backward-stage optimisations against their references.

Three independent claims, each bit-exact:

* the vectorised multi-source ``distance_matrix`` reproduces the scalar
  Dijkstra rows (distances **and** predecessors) for every source;
* Dreyfus-Wagner with the subset-reusing plan cache — warm, shared
  across a random sequence of terminal sets with interleaved graph
  mutations — returns the same trees as the cold dict reference;
* the staged pipeline returns identical rankings whichever of the new
  settings flags (``batched_shortest_paths``, ``steiner_plan_cache``) is
  enabled, on both storage backends.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Quest, QuestSettings
from repro.datasets import mondial
from repro.errors import SteinerError
from repro.steiner import (
    approximate_steiner_tree,
    exact_steiner_tree,
    exact_steiner_tree_reference,
)
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper

from tests.perf.test_steiner_parity import _random_graph

BACKENDS = ("memory", "sqlite")
NEW_FLAGS = ("batched_shortest_paths", "steiner_plan_cache")


# -- kernel-level parity ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_distance_matrix_bit_identical_to_dijkstra(seed: int):
    graph, _terminals = _random_graph(seed)
    fresh, _ = _random_graph(seed)  # same topology, untouched caches
    compact = graph.compact()
    sources = list(range(len(compact)))
    distances, predecessors = compact.distance_matrix(sources)
    reference = fresh.compact()
    for i in sources:
        ref_distances, ref_predecessors = reference.dijkstra(i)
        assert distances[i].tolist() == ref_distances  # bit identity
        assert predecessors[i].tolist() == ref_predecessors


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_plan_cache_sequence_matches_reference(seed: int):
    """Random terminal sequences with interleaved ``add_edge``.

    The shared graph keeps its plan cache warm across the sequence (so
    later sets reuse earlier subset rows); every answer must still be
    bit-identical to the cold dict reference, and every mutation must
    empty the cache.
    """
    graph, _ = _random_graph(seed)
    rng = random.Random(seed + 7)
    nodes = list(graph.nodes)
    for _step in range(6):
        terminals = rng.sample(nodes, rng.randint(1, min(5, len(nodes))))
        try:
            fast = exact_steiner_tree(graph, terminals)
        except SteinerError:
            with pytest.raises(SteinerError):
                exact_steiner_tree_reference(graph, terminals)
            continue
        slow = exact_steiner_tree_reference(graph, terminals)
        assert fast.signature() == slow.signature()
        assert fast.weight == slow.weight  # bit identity
        if rng.random() < 0.4:
            left, right = rng.sample(nodes, 2)
            if graph.edge_between(left, right) is None:
                graph.add_edge(left, right, rng.uniform(0.1, 2.0), "intra")
                assert len(graph.plan_cache) == 0  # mutation clears rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_kmb_batched_prefetch_identical(seed: int):
    graph, terminals = _random_graph(seed)
    fresh, _ = _random_graph(seed)
    try:
        fast = approximate_steiner_tree(graph, terminals, cached=True, batched=True)
    except SteinerError:
        with pytest.raises(SteinerError):
            approximate_steiner_tree(fresh, terminals, cached=True, batched=False)
        return
    slow = approximate_steiner_tree(fresh, terminals, cached=True, batched=False)
    assert fast.signature() == slow.signature()
    assert fast.weight == slow.weight


def test_plan_cache_counts_hits_and_survives_repeats():
    graph, terminals = _random_graph(11)
    if len(terminals) < 2:
        terminals = list(graph.nodes)[:3]
    exact_steiner_tree(graph, terminals)
    stats_cold = graph.plan_cache.stats
    assert stats_cold.misses > 0
    assert stats_cold.size == len(graph.plan_cache)
    exact_steiner_tree(graph, terminals)
    stats_warm = graph.plan_cache.stats
    assert stats_warm.hits > stats_cold.hits


# -- pipeline-level parity -------------------------------------------------


@pytest.fixture(scope="module")
def small_mondial():
    db = mondial.generate(countries=8, seed=23)
    texts = [q.text for q in mondial.workload(db, queries_per_kind=1, seed=31)]
    return db, texts


def _rankings(db, texts, backend: str, settings: QuestSettings):
    engine = Quest(FullAccessWrapper(create_backend(backend, db)), settings)
    answers = engine.search_many(texts, strict=False)
    return [
        [(e.sql, e.probability, e.result_count) for e in per_query]
        for per_query in answers
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_new_flags_preserve_rankings(small_mondial, backend: str):
    db, texts = small_mondial
    reference = _rankings(db, texts, backend, QuestSettings.reference_kernels())
    assert _rankings(db, texts, backend, QuestSettings()) == reference
    for flag in NEW_FLAGS:
        flipped = QuestSettings.reference_kernels(**{flag: True})
        assert _rankings(db, texts, backend, flipped) == reference, flag


def test_reference_kernels_disable_new_flags():
    reference = QuestSettings.reference_kernels()
    defaults = QuestSettings()
    for flag in NEW_FLAGS:
        assert not getattr(reference, flag)
        assert getattr(defaults, flag)


@pytest.mark.parametrize("backend", BACKENDS)
def test_subset_cache_counters_visible_in_trace(small_mondial, backend: str):
    db, texts = small_mondial
    engine = Quest(FullAccessWrapper(create_backend(backend, db)))
    cold = engine.pipeline.run(engine, query=texts[0])
    warm = engine.pipeline.run(engine, query=texts[0])
    assert cold.trace.steiner_subset_cache.misses > 0
    assert warm.trace.steiner_subset_cache.hits > 0
    assert warm.trace.steiner_subset_cache.misses == 0
    assert warm.trace.steiner_subset_cache.size == len(engine.schema_graph.plan_cache)
    assert "subsets[" in warm.trace.summary()

