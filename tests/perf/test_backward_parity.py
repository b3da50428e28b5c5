"""Parity of the backward stage against its reference twin.

The staged pipeline returns identical rankings, on both storage
backends, whether the backward stage enumerates trees with the interned
top-k Steiner search or with its frozenset twin from ``tests/oracle.py``.
Both take connectivity from the schema graph's component labels, which
``test_search_identity`` checks against a breadth-first search; whole-
engine rankings are checked against every reference twin there too.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheStats
from repro.core import Quest
from repro.datasets import mondial
from repro.storage import create_backend
from repro.wrapper import FullAccessWrapper

from tests.oracle import reference_kernels

BACKENDS = ("memory", "sqlite")
#: The backward stage's kernel call site with a reference twin.
BACKWARD_SITES = ("repro.pipeline.stages.top_k_steiner_trees",)


@pytest.fixture(scope="module")
def small_mondial():
    db = mondial.generate(countries=8, seed=23)
    texts = [q.text for q in mondial.workload(db, queries_per_kind=1, seed=31)]
    return db, texts


def _rankings(db, texts, backend: str):
    engine = Quest(FullAccessWrapper(create_backend(backend, db)))
    answers = engine.search_many(texts, strict=False)
    return [
        [(e.sql, e.probability, e.result_count) for e in per_query]
        for per_query in answers
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_new_flags_preserve_rankings(small_mondial, backend: str):
    """Only the backward stage on its reference twin: each Steiner call
    enumerates trees without interning."""
    db, texts = small_mondial
    fast = _rankings(db, texts, backend)
    with reference_kernels(*BACKWARD_SITES) as calls:
        reference = _rankings(db, texts, backend)
    assert fast == reference
    assert any(reference)
    assert all(calls[site] > 0 for site in BACKWARD_SITES), dict(calls)


@pytest.mark.parametrize("backend", BACKENDS)
def test_subset_cache_counters_visible_in_trace(small_mondial, backend: str):
    """The engine has no Steiner subset cache, but the trace keeps its
    counter field (span exporters read it): present, and zero, cold and
    warm, while the result cache's counters move."""
    db, texts = small_mondial
    engine = Quest(FullAccessWrapper(create_backend(backend, db)))
    cold = engine.pipeline.run(engine, query=texts[0])
    warm = engine.pipeline.run(engine, query=texts[0])
    for context in (cold, warm):
        assert context.trace.steiner_subset_cache == CacheStats()
    assert cold.trace.steiner_cache.misses > 0
    assert warm.trace.steiner_cache.hits > 0
    assert warm.trace.steiner_cache.misses == 0
