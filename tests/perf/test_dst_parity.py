"""Parity: bitmask Dempster-Shafer combination against the reference loop.

Both paths must produce bit-identical mass functions: same focal elements,
same masses float for float, same conflict coefficient — on arbitrary
(multi-element-focal) bodies of evidence, not just the singleton+ignorance
shape the engine produces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dst import (
    MassFunction,
    combine_scores,
    conflict,
    dempster_combine,
    rank_hypotheses,
)
from repro.dst.combine import (
    conflict_reference,
    dempster_combine_reference,
    evidence_bodies,
)
from repro.dst.mass import FrameInterning
from repro.errors import CombinationError


def _random_mass_pair(seed: int):
    """Two random bodies of evidence over one universe (may conflict)."""
    rng = random.Random(seed)
    universe = [f"h{i}" for i in range(rng.randint(2, 12))]

    def random_masses():
        masses: dict[frozenset, float] = {}
        for _ in range(rng.randint(1, 6)):
            focal = frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            masses[focal] = masses.get(focal, 0.0) + rng.random()
        total = sum(masses.values())
        return {focal: mass / total for focal, mass in masses.items()}

    return universe, random_masses(), random_masses()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_combine_bitmask_matches_reference(seed: int):
    universe, left_masses, right_masses = _random_mass_pair(seed)

    def build():
        return (
            MassFunction(left_masses, frame=universe),
            MassFunction(right_masses, frame=universe),
        )

    left, right = build()
    try:
        fast = dempster_combine(left, right)
    except CombinationError:
        left, right = build()
        with pytest.raises(CombinationError):
            dempster_combine_reference(left, right)
        return
    left, right = build()
    slow = dempster_combine_reference(left, right)

    fast_items = dict(fast.items())
    slow_items = dict(slow.items())
    assert set(fast_items) == set(slow_items)
    for focal in fast_items:
        assert fast_items[focal] == slow_items[focal]  # bit identity
    assert fast.frame == slow.frame


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_conflict_bitmask_matches_reference(seed: int):
    universe, left_masses, right_masses = _random_mass_pair(seed)
    left = MassFunction(left_masses, frame=universe)
    right = MassFunction(right_masses, frame=universe)
    assert conflict(left, right) == conflict_reference(left, right)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_combine_scores_paths_agree(seed: int):
    rng = random.Random(seed)
    universe = [f"h{i}" for i in range(rng.randint(1, 30))]
    left = {h: rng.random() for h in rng.sample(universe, rng.randint(1, len(universe)))}
    right = {h: rng.random() for h in rng.sample(universe, rng.randint(1, len(universe)))}
    left_ignorance = rng.choice([0.0, 0.3, 0.9])
    right_ignorance = rng.choice([0.0, 0.3, 0.9])
    try:
        fast = combine_scores(left, right, left_ignorance, right_ignorance)
    except CombinationError:
        with pytest.raises(CombinationError):
            dempster_combine_reference(
                *evidence_bodies(left, right, left_ignorance, right_ignorance)
            )
        return
    slow = rank_hypotheses(
        dempster_combine_reference(
            *evidence_bodies(left, right, left_ignorance, right_ignorance)
        )
    )
    assert fast == slow  # same hypotheses, same probabilities, same order


def test_separate_internings_are_aligned():
    """Operands built with unrelated internings still combine correctly."""
    left = MassFunction.from_scores({"a": 0.7, "b": 0.3}, 0.1, frame={"a", "b", "c"})
    right = MassFunction.from_scores({"b": 0.6, "c": 0.4}, 0.2, frame={"a", "b", "c"})
    assert left.interning is not right.interning
    combined = dempster_combine(left, right)
    combined.validate()
    shared = FrameInterning({"a", "b", "c"})
    left_s = MassFunction.from_scores(
        {"a": 0.7, "b": 0.3}, 0.1, frame={"a", "b", "c"}, interning=shared
    )
    right_s = MassFunction.from_scores(
        {"b": 0.6, "c": 0.4}, 0.2, frame={"a", "b", "c"}, interning=shared
    )
    assert dempster_combine(left_s, right_s) == combined


def test_shared_interning_skips_reencoding():
    """With one shared interning no remapping allocation happens."""
    shared = FrameInterning(["a", "b"])
    left = MassFunction.from_scores({"a": 1.0}, 0.2, frame={"a", "b"}, interning=shared)
    right = MassFunction.from_scores({"b": 1.0}, 0.2, frame={"a", "b"}, interning=shared)
    combined = dempster_combine(left, right)
    assert combined.interning is shared


def test_zero_products_are_skipped():
    """Zero-mass products contribute nothing — and are not intersected."""
    left = MassFunction(frame={"a", "b"})
    left.assign(frozenset({"a"}), 1.0)
    right = MassFunction(frame={"a", "b"})
    right.assign(frozenset({"a"}), 1.0)
    # A focal that exists but holds zero mass after normalisation cannot
    # occur via the public API; the loop guard is still the documented
    # behaviour for masses that multiply to exactly 0.0.
    combined = dempster_combine(left, right)
    assert combined.mass({"a"}) == 1.0


def test_total_ignorance_records_no_zero_mass_focals():
    """budget = 0 (ignorance 1.0): scored singletons must not appear as
    spurious zero-mass focal elements."""
    mass = MassFunction.from_scores(
        {"a": 1.0, "b": 2.0}, ignorance=1.0, frame={"a", "b", "c"}
    )
    assert mass.focal_elements == (frozenset({"a", "b", "c"}),)
    assert mass.ignorance() == 1.0
    mass.validate()


def test_views_reconstruct_frozensets():
    mass = MassFunction.from_scores({"x": 2.0, "y": 2.0}, ignorance=0.5)
    assert set(mass.focal_elements) == {
        frozenset({"x"}),
        frozenset({"y"}),
        frozenset({"x", "y"}),
    }
    assert mass.frame == frozenset({"x", "y"})
    assert mass.ignorance() == pytest.approx(0.5)
