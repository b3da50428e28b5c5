"""Dempster's rule of combination and the QUEST two-source combiner.

Dempster's rule aggregates two independent bodies of evidence into one:
masses multiply on intersecting focal elements and the conflicting mass
(products landing on the empty set) is renormalised away. The paper's
``CombinerDST`` wraps this rule with QUEST-specific plumbing: per-source
score normalisation and per-source ignorance (``setUncertainty``), exactly
as in Algorithm 1.

The combination loop aligns both operands onto one
:class:`~repro.dst.mass.FrameInterning` and walks parallel
``(bitmask, mass)`` arrays, so every focal intersection is a single
integer ``&`` — no frozenset allocation per pair. Zero-probability
products are skipped before any intersection work.

:func:`dempster_combine_reference` and :func:`conflict_reference` iterate
the public frozenset views instead. They are the executable specification:
nothing in the engine calls them; the parity tests and the test-side
oracle (``tests/oracle.py``) do. Both loops accumulate products in the
same nested order, so the resulting masses are bit-identical float for
float.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.dst.belief import rank_hypotheses
from repro.dst.mass import FrameInterning, MassFunction
from repro.errors import CombinationError

__all__ = [
    "combine_scores",
    "conflict",
    "conflict_reference",
    "dempster_combine",
    "dempster_combine_reference",
    "evidence_bodies",
]


def _aligned_right_items(
    left: MassFunction, right: MassFunction
) -> list[tuple[int, float]]:
    """Right-hand mask items re-encoded against the left interning.

    When both operands already share one interning (the common case — see
    :func:`combine_scores` and the pipeline stages) this is free; otherwise
    the right side's focal bitmasks are translated once, extending the left
    interning append-only (existing masks stay valid).
    """
    interning = left.interning
    if right.interning is interning:
        return list(right.mask_items())
    remap = interning.mask_of
    members = right.interning.members
    return [(remap(members(mask)), mass) for mask, mass in right.mask_items()]


def _aligned_frame_mask(left: MassFunction, right: MassFunction) -> int:
    """The right operand's frame mask, encoded against the left interning."""
    if right.interning is left.interning:
        return right.frame_mask
    return left.interning.mask_of(right.interning.members(right.frame_mask))


def conflict(left: MassFunction, right: MassFunction) -> float:
    """The conflict coefficient K: mass landing on the empty set.

    A pure query: unlike :func:`dempster_combine` it never grows either
    operand's interning — right-hand focals are projected onto the left
    interning's *known* hypotheses, which is sufficient because a
    hypothesis the left side never interned cannot intersect any left
    focal.
    """
    if right.interning is left.interning:
        right_items = list(right.mask_items())
    else:
        project = left.interning.partial_mask
        members = right.interning.members
        right_items = [
            (project(members(mask)), mass) for mask, mass in right.mask_items()
        ]
    total = 0.0
    for left_mask, left_mass in left.mask_items():
        for right_mask, right_mass in right_items:
            product = left_mass * right_mass
            if product == 0.0:
                continue
            if not left_mask & right_mask:
                total += product
    return total


def conflict_reference(left: MassFunction, right: MassFunction) -> float:
    """:func:`conflict` over the frozenset views (executable specification)."""
    total = 0.0
    for left_focal, left_mass in left.items():
        for right_focal, right_mass in right.items():
            product = left_mass * right_mass
            if product == 0.0:
                continue
            if not left_focal & right_focal:
                total += product
    return total


def _combined_frame(left: MassFunction, right: MassFunction) -> MassFunction:
    """An empty result over the union frame, on the *left* interning."""
    combined = MassFunction(interning=left.interning)
    combined._frame_mask = left.frame_mask | _aligned_frame_mask(left, right)
    return combined


def _finish(combined: MassFunction, conflicting: float) -> MassFunction:
    if not combined._masses:
        raise CombinationError(
            f"total conflict (K={conflicting:.6f}): sources share no hypothesis"
        )
    combined.normalize()
    combined.validate()
    return combined


def dempster_combine(left: MassFunction, right: MassFunction) -> MassFunction:
    """Dempster's rule of combination.

    Raises :class:`CombinationError` on total conflict (K = 1), where the
    rule is undefined. Frames are unioned: QUEST builds both sources over
    the union of their candidate sets, so focal elements intersect exactly
    on shared candidates.

    The result shares the *left* operand's interning; when the operands'
    internings differ, the left interning is extended (append-only —
    existing masks stay valid) with the right side's hypotheses.
    """
    combined = _combined_frame(left, right)
    conflicting = 0.0
    right_items = _aligned_right_items(left, right)
    masses = combined._masses
    for left_mask, left_mass in left.mask_items():
        for right_mask, right_mass in right_items:
            product = left_mass * right_mass
            if product == 0.0:
                continue
            intersection = left_mask & right_mask
            if intersection:
                masses[intersection] = masses.get(intersection, 0.0) + product
            else:
                conflicting += product
    return _finish(combined, conflicting)


def dempster_combine_reference(
    left: MassFunction, right: MassFunction
) -> MassFunction:
    """:func:`dempster_combine` over the frozenset views (executable
    specification).

    Only the frame mask is translated onto the left interning; the masses
    are re-interned focal by focal as they are assigned, and
    per-hypothesis sums do not depend on bit numbering.
    """
    combined = _combined_frame(left, right)
    conflicting = 0.0
    for left_focal, left_mass in left.items():
        for right_focal, right_mass in right.items():
            product = left_mass * right_mass
            if product == 0.0:
                continue
            intersection = left_focal & right_focal
            if intersection:
                combined.assign(intersection, product)
            else:
                conflicting += product
    return _finish(combined, conflicting)


def evidence_bodies(
    left_scores: Mapping[Hashable, float],
    right_scores: Mapping[Hashable, float],
    left_ignorance: float,
    right_ignorance: float,
) -> tuple[MassFunction, MassFunction]:
    """The two bodies of evidence :func:`combine_scores` combines.

    Both are built over the *union* frame (so a hypothesis known to only
    one source survives through the other's ignorance mass) and share one
    hypothesis interning, so no frame is re-encoded mid-combination.
    """
    if not left_scores and not right_scores:
        raise CombinationError("both sources are empty")
    frame = frozenset(left_scores) | frozenset(right_scores)
    interning = FrameInterning(frame)
    return (
        MassFunction.from_scores(
            left_scores, left_ignorance, frame, interning=interning
        ),
        MassFunction.from_scores(
            right_scores, right_ignorance, frame, interning=interning
        ),
    )


def combine_scores(
    left_scores: Mapping[Hashable, float],
    right_scores: Mapping[Hashable, float],
    left_ignorance: float,
    right_ignorance: float,
    k: int | None = None,
) -> list[tuple[Hashable, float]]:
    """The paper's ``CombinerDST`` in one call.

    Both score sets become bodies of evidence (:func:`evidence_bodies`),
    weighted by their ignorance parameters, are combined with Dempster's
    rule, and are ranked by pignistic probability.

    Args:
        left_scores: hypothesis -> positive score, first source.
        right_scores: hypothesis -> positive score, second source.
        left_ignorance: mass the first source reserves for "don't know"
            (the paper's ``O`` parameter for that source). Higher means the
            source influences the outcome *less*.
        right_ignorance: same for the second source.
        k: optional cut-off for the returned ranking.

    Returns:
        ``(hypothesis, probability)`` pairs, best first.
    """
    left_mass, right_mass = evidence_bodies(
        left_scores, right_scores, left_ignorance, right_ignorance
    )
    return rank_hypotheses(dempster_combine(left_mass, right_mass), k)
