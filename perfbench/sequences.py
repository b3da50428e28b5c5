"""Seeded, deterministic op sequences for the benchmark workloads.

Everything a workload sends is decided here from ``--seed`` alone: the
same seed gives the same sequence in every process, so every run of a
workload does identical work and only the host's speed varies. The
program under test never sees the seed, only the generated inputs.

Datasets are generated at fixed scale with their own default seeds, so
the data (and with it set-up cost and per-query work) is the same for
every benchmark seed; the seed picks the order of the gold queries, the
repeats mixed into the serving stream, and the mixed read/write ops.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "REUSE_DISTANCE",
    "explain_sequence",
    "serve_sequence",
    "split_budget",
    "stream_rng",
]

#: A repeat re-sends one of the last this-many distinct queries, so it
#: lands long before the result cache's 30 s TTL or its 256-entry LRU
#: bound could evict the first answer.
REUSE_DISTANCE = 8


def stream_rng(seed: int, stream: str, round_index: int = 0) -> random.Random:
    """An RNG for one named stream of one round, derived from *seed* only."""
    return random.Random(f"{seed}:{stream}:{round_index}")


def serve_sequence(
    n_gold: int, rng: random.Random, count: int | None = None
) -> list[tuple[int, bool]]:
    """Gold-query indices to send over HTTP, each flagged ``is_repeat``.

    Every gold query (or, for a *count* below a full round, a seeded
    prefix of them) is sent once in seeded order, and a third as many
    repeats are mixed in, each re-sending a query from at most
    :data:`REUSE_DISTANCE` distinct sends earlier. Hits are then a
    quarter of the requests, so the 50th percentile sits a third of the
    way into the miss distribution, where its latencies lie densest, and
    the 90th well inside it.
    """
    if n_gold <= 0:
        raise ValueError("serve_sequence needs at least one gold query")
    order = list(range(n_gold))
    rng.shuffle(order)
    if count is not None and count < n_gold + n_gold // 3:
        order = order[: max(1, math.ceil(count * 3 / 4))]
    repeats = len(order) // 3
    after = set(rng.sample(range(len(order)), repeats))
    sequence: list[tuple[int, bool]] = []
    for position, index in enumerate(order):
        sequence.append((index, False))
        if position in after:
            window = order[max(0, position + 1 - REUSE_DISTANCE) : position + 1]
            sequence.append((rng.choice(window), True))
    return sequence


def explain_sequence(
    n_gold: int, rng: random.Random, count: int | None = None
) -> list[int]:
    """Gold-query indices in seeded order, each at most once."""
    order = list(range(n_gold))
    rng.shuffle(order)
    return order if count is None else order[: max(1, count)]


def split_budget(budget: int, per_round: int) -> list[int]:
    """Whole rounds of *per_round* ops, as many as come nearest *budget*;
    a budget below one round gives one short round."""
    if budget <= 0 or per_round <= 0:
        raise ValueError("budget and per_round must be positive")
    rounds = max(1, round(budget / per_round))
    return [per_round] * rounds if budget >= per_round else [budget]
