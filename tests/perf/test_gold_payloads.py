"""The gold queries' explanation payloads, pinned by hash on both backends.

Every speed change to the engine must leave its answers alone. This pins
the answers of the two benchmark datasets' gold workloads: the 81 mondial
``countries=100`` queries and the 111 dblp ``papers=1000`` queries, top 10
each. A payload is :func:`repro.service.http.explanation_payload` (rank,
probability as a ``repr``-exact JSON float, SQL, result count), and the
hash is one sha256 updated with each query's ``json.dumps`` in workload
order. The memory and SQLite backends must both produce it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import FullAccessWrapper, Quest
from repro.datasets import dblp, mondial
from repro.service.http import explanation_payload
from repro.storage import create_backend

#: dataset -> (gold queries, sha256 of their payloads).
PINNED = {
    "mondial": (
        81,
        "157e7821743b84f2d29211de56521e495f3c254b08e4082d7480bb0428cea2ee",
    ),
    "dblp": (
        111,
        "2932a2e35ef7deca1cfaa1df780d1d4f8cba59f83ec99dc10836ea756f0ceade",
    ),
}


def _gold(dataset: str):
    if dataset == "mondial":
        db = mondial.generate(countries=100)
        return db, mondial.workload(db, queries_per_kind=100)
    db = dblp.generate(papers=1000)
    return db, dblp.workload(db, queries_per_kind=30)


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("dataset", sorted(PINNED))
def test_gold_payloads_are_pinned(dataset: str, backend: str):
    db, gold = _gold(dataset)
    engine = Quest(FullAccessWrapper(create_backend(backend, db)))
    digest = hashlib.sha256()
    for query in gold:
        answers = tuple(engine.search(query.text, 10))
        digest.update(json.dumps(explanation_payload(answers)).encode())
    assert (len(gold), digest.hexdigest()) == PINNED[dataset]
