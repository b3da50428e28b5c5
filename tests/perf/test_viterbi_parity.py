"""Parity: the vectorised List Viterbi kernel against the reference.

The contract is *bit identity*: on any model and emission matrix, the
numpy kernel must return the same paths with the same log-probabilities
(float for float) in the same order as the pure-Python reference —
including selection and ordering of exactly-tied paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmm.model import HiddenMarkovModel
from repro.hmm.states import StateSpace
from repro.hmm.viterbi import list_viterbi, list_viterbi_reference, viterbi


class _States:
    """A stand-in state space: the kernels only need ``len``."""

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n


def _random_problem(seed: int):
    """A random HMM + emission matrix, mixing generic and tie-heavy cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    T = int(rng.integers(1, 6))
    k = int(rng.integers(1, 9))
    mode = seed % 3
    if mode == 0:
        # Generic position: distinct probabilities, no ties.
        initial = rng.random(n) + 0.05
        transition = rng.random((n, n)) + 0.05
        emissions = rng.random((T, n)) + 0.05
    elif mode == 1:
        # Tie-heavy: probabilities drawn from a tiny pool, plus hard zeros
        # (-inf log-probabilities) to exercise pruning.
        pool = np.array([0.0, 0.5, 1.0])
        initial = rng.choice(pool, n) + 0.01
        transition = rng.choice(pool, (n, n))
        transition = transition + (transition.sum(axis=1, keepdims=True) == 0)
        emissions = rng.choice(pool, (T, n))
        if not emissions.sum():
            emissions[0, 0] = 1.0
    else:
        # Maximum degeneracy: every path ties with every other.
        initial = np.ones(n)
        transition = np.ones((n, n))
        emissions = np.ones((T, n))
    if mode != 2 and rng.random() < 0.3:
        emissions[rng.integers(0, T), rng.integers(0, n)] = 0.0
    model = HiddenMarkovModel(_States(n), initial, transition)
    row_sums = np.maximum(emissions.sum(axis=1, keepdims=True), 1e-300)
    return model, emissions / row_sums, k


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_vectorized_matches_reference(seed: int):
    model, emissions, k = _random_problem(seed)
    reference = list_viterbi_reference(model, emissions, k)
    vectorized = list_viterbi(model, emissions, k)
    assert len(vectorized) == len(reference)
    for fast, slow in zip(vectorized, reference):
        assert fast.states == slow.states
        assert fast.log_probability == slow.log_probability  # bit identity


#: Probabilities of the last-step models: a tiny pool makes exact ties
#: (plateaus of equal leaders) common, and 0.0 puts -inf in the logs.
_POOL = (0.0, 0.25, 0.5, 1.0)


@st.composite
def _last_step_problem(draw):
    n = draw(st.integers(2, 12))
    T = draw(st.integers(2, 4))
    k = draw(st.integers(1, 30))
    probabilities = st.sampled_from(_POOL)
    initial = np.array(draw(st.lists(probabilities, min_size=n, max_size=n)))
    initial[0] += initial.sum() == 0
    transition = np.array(
        draw(st.lists(probabilities, min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    transition[transition.sum(axis=1) == 0, 0] = 1.0
    emissions = np.array(
        draw(st.lists(probabilities, min_size=T * n, max_size=T * n))
    ).reshape(T, n)
    return HiddenMarkovModel(_States(n), initial, transition), emissions, k


@settings(max_examples=300, deadline=None)
@given(problem=_last_step_problem())
def test_last_step_matches_reference(problem):
    """The bounded last step against the full per-cell reference, at the
    engine's k and beyond the engine's sequence lengths."""
    model, emissions, k = problem
    assert list_viterbi(model, emissions, k) == list_viterbi_reference(
        model, emissions, k
    )


def test_last_step_bound_inside_plateau():
    """The k-th leader sits inside a plateau of 12 equal leaders: every
    tie at the bound must be expanded, and the plateau's lexicographically
    first paths win."""
    model = HiddenMarkovModel(
        _States(4), np.array([0.4, 0.2, 0.2, 0.2]), np.ones((4, 4))
    )
    emissions = np.full((2, 4), 0.25)
    paths = list_viterbi(model, emissions, 6)
    assert paths == list_viterbi_reference(model, emissions, 6)
    assert [p.states for p in paths] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)
    ]


def test_last_step_too_few_finite_leaders():
    """Fewer than k leaders (and, second, exactly k) are finite: every
    finite path comes back, and no -inf one."""
    initial = np.array([0.5, 0.3, 0.2])
    transition = np.array([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    model = HiddenMarkovModel(_States(3), initial, transition)
    emissions = np.full((2, 3), 1.0 / 3)
    for k, expected in ((30, 4), (4, 4), (3, 3)):
        paths = list_viterbi(model, emissions, k)
        assert paths == list_viterbi_reference(model, emissions, k)
        assert len(paths) == expected
        assert all(p.log_probability > float("-inf") for p in paths)


def test_last_step_with_impossible_transitions():
    """Transitions hold -inf: the cell that a full step would truncate
    (two tied candidates, k=1) keeps the first-generated one, (1, 0, 2),
    although the global order alone would pick the lexicographically
    smaller (0, 1, 2)."""
    initial = np.array([1.0, 1.0, 0.0])
    transition = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    model = HiddenMarkovModel(_States(3), initial, transition)
    emissions = np.array([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]])
    for k in (1, 2, 30):
        paths = list_viterbi(model, emissions, k)
        assert paths == list_viterbi_reference(model, emissions, k)
    assert list_viterbi(model, emissions, 1)[0].states == (1, 0, 2)


def test_degenerate_ties_order_lexicographically():
    """All-uniform model: every sequence ties, order must be path-lex."""
    n, T, k = 3, 3, 8
    model = HiddenMarkovModel(_States(n), np.ones(n), np.ones((n, n)))
    emissions = np.full((T, n), 1.0 / n)
    paths = list_viterbi(model, emissions, k)
    assert [p.states for p in paths] == sorted(p.states for p in paths)
    assert paths == list_viterbi_reference(model, emissions, k)


def test_single_best_path_agrees(mini_engine):
    """End-to-end smoke on a real engine's a-priori model."""
    model = mini_engine.apriori_model
    emissions = model.emission_matrix(
        ["matrix", "reeves"], mini_engine.wrapper
    )
    assert viterbi(model, emissions) == list_viterbi_reference(model, emissions, 1)[0]


def test_state_space_width_checked():
    model = HiddenMarkovModel(_States(2), np.ones(2), np.ones((2, 2)))
    from repro.errors import ModelError

    with pytest.raises(ModelError):
        list_viterbi(model, np.ones((2, 3)), 2)
    with pytest.raises(ModelError):
        list_viterbi(model, np.ones((2, 2)), 0)


def test_statespace_is_compatible(mini_schema):
    """The fake used above matches the real StateSpace contract."""
    states = StateSpace(mini_schema)
    assert len(states) > 0
