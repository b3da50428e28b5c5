"""E1 answer-quality gate: success@k and MRR per scenario, exactly.

Runs the E1 effectiveness experiment (``benchmarks/bench_e1_end_to_end``)
at its committed scales — the three demo scenarios from
``benchmarks/_common`` with ``queries_per_kind=4`` — on both storage
backends, and compares every quality metric with the committed value by
exact equality. Rankings are deterministic per seed and bit-identical
across backends, so any drift is a change in answers, not noise: a
deletion or optimisation that moves one of these numbers changed what
the engine returns.
"""

from __future__ import annotations

import pytest

from benchmarks._common import quest_for, scenario
from repro.eval import evaluate, quest_engine

BACKENDS = ("memory", "sqlite")

#: (success@1, success@3, success@10, MRR) per scenario, identical on
#: every backend.
BASELINE = {
    "imdb": (1.0, 1.0, 1.0, 1.0),
    "dblp": (1.0, 1.0, 1.0, 1.0),
    "mondial": (0.8, 1.0, 1.0, 0.8777777777777779),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(BASELINE))
def test_e1_quality_matches_baseline(name: str, backend: str):
    sc = scenario(name, queries_per_kind=4)
    engine = quest_engine(quest_for(sc.db, backend=backend))
    result = evaluate(engine, sc.workload, k=10)
    measured = (
        result.success_at(1),
        result.success_at(3),
        result.success_at(10),
        result.mrr,
    )
    assert measured == BASELINE[name]
