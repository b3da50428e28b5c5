"""Belief, plausibility and the pignistic transform.

After combining evidence, QUEST needs a total order over hypotheses to
report top-k results. The pignistic transform (Smets) distributes each focal
element's mass uniformly over its members, yielding a probability
distribution suitable for ranking; belief and plausibility bound it from
below and above.

All three consume the mass function's focal *bitmasks* directly (see
:class:`~repro.dst.mass.FrameInterning`): subset and intersection tests are
integer operations, a focal's cardinality is a popcount, and hypotheses are
enumerated in interned-bit order — deterministic regardless of how the
focal sets were built.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable

from repro.bits import iter_bits
from repro.dst.mass import MassFunction

__all__ = ["belief", "plausibility", "pignistic", "rank_hypotheses"]


def belief(mass_function: MassFunction, hypothesis_set: Iterable[Hashable]) -> float:
    """Total mass of focal elements *contained in* the hypothesis set."""
    target = mass_function.interning.partial_mask(hypothesis_set)
    return sum(
        mass
        for focal, mass in mass_function.mask_items()
        if not focal & ~target
    )


def plausibility(
    mass_function: MassFunction, hypothesis_set: Iterable[Hashable]
) -> float:
    """Total mass of focal elements *intersecting* the hypothesis set."""
    target = mass_function.interning.partial_mask(hypothesis_set)
    return sum(
        mass for focal, mass in mass_function.mask_items() if focal & target
    )


def pignistic(mass_function: MassFunction) -> dict[Hashable, float]:
    """Smets' pignistic probability: mass spread uniformly inside focals."""
    hypothesis = mass_function.interning.hypothesis
    return {
        hypothesis(bit): probability
        for bit, probability in _pignistic_bits(mass_function).items()
    }


def _pignistic_bits(mass_function: MassFunction) -> dict[int, float]:
    """:func:`pignistic` keyed on bit positions (no hypothesis is hashed).

    Keys appear in first-reached order (focals in assignment order, bits
    ascending within a focal) and each probability sums its shares in
    that order, so mapping the keys back to hypotheses gives exactly the
    hypothesis-keyed dictionary.
    """
    probabilities: dict[int, float] = {}
    get = probabilities.get
    for focal, mass in mass_function.mask_items():
        if not focal & (focal - 1):  # a singleton: its whole mass, unsplit
            bit = focal.bit_length() - 1
            probabilities[bit] = get(bit, 0.0) + mass
            continue
        share = mass / focal.bit_count()
        for bit in iter_bits(focal):
            probabilities[bit] = get(bit, 0.0) + share
    return probabilities


def rank_hypotheses(
    mass_function: MassFunction, k: int | None = None
) -> list[tuple[Hashable, float]]:
    """Hypotheses sorted by pignistic probability (descending, stable).

    Ties break on the string rendering of the hypothesis so rankings are
    deterministic across runs. Returns at most *k* entries when given.

    The order is exactly ``sorted(items, key=(-p, str(h)))``, but ``str``
    is only computed inside runs of equal probability (and only for runs
    that start inside the top *k*): Python's sort is stable, so sorting
    by probability first and then each tied run by string gives the same
    sequence while skipping the renderings that cannot matter.
    """
    hypothesis = mass_function.interning.hypothesis
    ordered = sorted(
        _pignistic_bits(mass_function).items(), key=itemgetter(1), reverse=True
    )
    limit = len(ordered if k is None else ordered[:k])
    start = 0
    while start < limit:
        probability = ordered[start][1]
        stop = start + 1
        while stop < len(ordered) and ordered[stop][1] == probability:
            stop += 1
        if stop - start > 1:
            ordered[start:stop] = sorted(
                ordered[start:stop], key=lambda item: str(hypothesis(item[0]))
            )
        start = stop
    return [(hypothesis(bit), p) for bit, p in ordered[:limit]]
