"""End-to-end ranking identity: optimised kernels vs reference kernels.

The whole point of the numeric rewrites is that they change latency, never
answers: a full mondial ``search_many`` workload must return *identical*
explanation lists — same SQL, same probabilities float for float, same
order — whether the engine decodes/enumerates/combines on the optimised
paths or on the retained pure-Python references.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Quest, QuestSettings
from repro.datasets import mondial
from repro.wrapper import FullAccessWrapper

from tests.conftest import TEST_BACKEND, backend_for


@pytest.fixture(scope="module")
def mondial_pair():
    db = mondial.generate(countries=10, seed=29)
    workload = mondial.workload(db, queries_per_kind=2, seed=31)
    optimised = Quest(FullAccessWrapper(backend_for(db)))
    reference = Quest(
        FullAccessWrapper(backend_for(db)), QuestSettings.reference_kernels()
    )
    return workload, optimised, reference


def test_reference_kernels_settings_flip_all_flags():
    settings = QuestSettings.reference_kernels()
    assert not settings.vectorized_viterbi
    assert not settings.bitmask_dst
    assert not settings.fast_steiner
    defaults = QuestSettings()
    assert defaults.vectorized_viterbi
    assert defaults.bitmask_dst
    assert defaults.fast_steiner


def test_search_many_rankings_identical(mondial_pair):
    workload, optimised, reference = mondial_pair
    texts = [q.text for q in workload][:8]
    fast = optimised.search_many(texts, strict=False)
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
    slow_configurations = reference.forward(keywords)
    assert fast_configurations == slow_configurations
    assert [c.score for c in fast_configurations] == [
        c.score for c in slow_configurations
    ]
    fast_interpretations = optimised.backward(fast_configurations)
    slow_interpretations = reference.backward(slow_configurations)
    assert fast_interpretations == slow_interpretations
    assert [i.tree.weight for i in fast_interpretations] == [
        i.tree.weight for i in slow_interpretations
    ]
    fast_ranked = optimised.combine(fast_configurations, fast_interpretations)
    slow_ranked = reference.combine(slow_configurations, slow_interpretations)
    assert fast_ranked == slow_ranked
    assert [i.score for i in fast_ranked] == [i.score for i in slow_ranked]


#: One process's rankings of a mondial gold subset, as JSON on stdout:
#: per query the full ``ranked`` list (``str`` and ``repr`` of the score)
#: and the explanation payload the serving tier sends.
_RANK_IN_PROCESS = """
import json, sys
from repro.core import Quest
from repro.datasets import mondial
from repro.service.http import explanation_payload
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
