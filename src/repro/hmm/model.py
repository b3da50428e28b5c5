"""The hidden Markov model over database terms.

The model owns the initial and transition distributions; emissions are
*computed on demand* by an :class:`EmissionProvider` because the observation
alphabet (all possible keywords) cannot be enumerated — the provider scores
a concrete keyword against every state using full-text indexes (full-access
sources) or semantic/shape matching (hidden sources), and the model
normalises those scores into an emission column.

:meth:`HiddenMarkovModel.emission_matrix` scores a whole keyword sequence
in one batched pass when the provider can; its per-keyword twin,
:meth:`HiddenMarkovModel.emission_matrix_reference`, is kept as the
executable specification (the parity tests and ``tests/oracle.py`` call
it; the engine never does).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.errors import ModelError
from repro.hmm.states import StateSpace

__all__ = [
    "BatchedEmissionProvider",
    "EmissionProvider",
    "HiddenMarkovModel",
    "EMISSION_FLOOR",
]

#: Smoothing floor so every state can emit every keyword with tiny
#: probability; without it a single unmatched keyword annihilates all paths.
EMISSION_FLOOR = 1e-6


class EmissionProvider(Protocol):
    """Scores one keyword against every state of a state space."""

    def emission_scores(self, keyword: str, states: StateSpace) -> np.ndarray:
        """Non-negative relevance of *keyword* for each state (unnormalised)."""
        ...  # pragma: no cover - protocol


class BatchedEmissionProvider(EmissionProvider, Protocol):
    """A provider that can score a whole observation sequence at once."""

    def emission_matrix(
        self, keywords: Sequence[str], states: StateSpace
    ) -> np.ndarray:
        """Raw ``(T, n)`` scores, rows bit-identical to ``emission_scores``."""
        ...  # pragma: no cover - protocol


class HiddenMarkovModel:
    """A discrete-state HMM with externally computed emissions.

    Attributes:
        states: the state space (one state per database term).
        initial: initial state distribution, shape ``(n,)``.
        transition: row-stochastic transition matrix, shape ``(n, n)``.
    """

    def __init__(
        self,
        states: StateSpace,
        initial: np.ndarray,
        transition: np.ndarray,
    ) -> None:
        n = len(states)
        initial = np.asarray(initial, dtype=float)
        transition = np.asarray(transition, dtype=float)
        if initial.shape != (n,):
            raise ModelError(f"initial shape {initial.shape}, expected ({n},)")
        if transition.shape != (n, n):
            raise ModelError(
                f"transition shape {transition.shape}, expected ({n}, {n})"
            )
        self.states = states
        self.initial = self._normalise_vector(initial)
        self.transition = self._normalise_rows(transition)

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _normalise_vector(vector: np.ndarray) -> np.ndarray:
        if np.any(vector < 0):
            raise ModelError("negative probability in initial distribution")
        total = vector.sum()
        if total <= 0:
            raise ModelError("initial distribution sums to zero")
        return vector / total

    @staticmethod
    def _normalise_rows(matrix: np.ndarray) -> np.ndarray:
        if np.any(matrix < 0):
            raise ModelError("negative probability in transition matrix")
        sums = matrix.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise ModelError("transition matrix has an all-zero row")
        return matrix / sums

    @classmethod
    def uniform(cls, states: StateSpace) -> "HiddenMarkovModel":
        """A maximum-entropy model: uniform initial and transitions."""
        n = len(states)
        if n == 0:
            raise ModelError("empty state space")
        return cls(states, np.full(n, 1.0 / n), np.full((n, n), 1.0 / n))

    def copy(self) -> "HiddenMarkovModel":
        """An independent copy (training mutates parameters in place)."""
        return HiddenMarkovModel(
            self.states, self.initial.copy(), self.transition.copy()
        )

    # -- emissions -----------------------------------------------------------

    def emission_matrix(
        self, keywords: Sequence[str], provider: EmissionProvider
    ) -> np.ndarray:
        """Emission probabilities for an observation sequence.

        Returns shape ``(T, n)``: row *t* is the provider's score vector for
        keyword *t*, floored at :data:`EMISSION_FLOOR` and normalised to sum
        to one across states. Normalising per keyword implements the paper's
        setup-phase coefficient: raw search-function scores are turned into
        quantities usable as probabilities.

        A provider exposing ``emission_matrix`` (see
        :class:`BatchedEmissionProvider` — the source wrappers do) scores
        the whole sequence in one deduplicated pass; a plain
        :class:`EmissionProvider` contributes one ``emission_scores`` row
        per keyword. Normalisation happens per row either way, in the same
        operation order, so the matrix is bit-identical to
        :meth:`emission_matrix_reference`.
        """
        n = len(self.states)
        if not keywords:
            raise ModelError("empty observation sequence")
        batch = getattr(provider, "emission_matrix", None)
        if batch is None:
            raw = np.asarray(
                [provider.emission_scores(k, self.states) for k in keywords],
                dtype=float,
            )
        else:
            raw = np.asarray(batch(keywords, self.states), dtype=float)
        if raw.shape != (len(keywords), n):
            raise ModelError(
                f"provider returned shape {raw.shape}, "
                f"expected ({len(keywords)}, {n})"
            )
        if np.any(raw < 0):
            raise ModelError("negative emission score in batched matrix")
        matrix = np.empty((len(keywords), n), dtype=float)
        for t in range(len(keywords)):
            scores = raw[t] + EMISSION_FLOOR
            matrix[t] = scores / scores.sum()
        return matrix

    def emission_matrix_reference(
        self, keywords: Sequence[str], provider: EmissionProvider
    ) -> np.ndarray:
        """:meth:`emission_matrix` walked one ``emission_scores`` call per
        keyword, whatever the provider can batch (executable specification)."""
        n = len(self.states)
        if not keywords:
            raise ModelError("empty observation sequence")
        matrix = np.empty((len(keywords), n), dtype=float)
        for t, keyword in enumerate(keywords):
            scores = np.asarray(provider.emission_scores(keyword, self.states))
            if scores.shape != (n,):
                raise ModelError(
                    f"provider returned shape {scores.shape}, expected ({n},)"
                )
            if np.any(scores < 0):
                raise ModelError(f"negative emission score for {keyword!r}")
            scores = scores + EMISSION_FLOOR
            matrix[t] = scores / scores.sum()
        return matrix

    # -- likelihood -----------------------------------------------------------

    def sequence_log_probability(
        self, state_path: Sequence[int], emissions: np.ndarray
    ) -> float:
        """Joint log P(path, observations) under the model."""
        if len(state_path) != emissions.shape[0]:
            raise ModelError("path and observation lengths differ")
        with np.errstate(divide="ignore"):
            log_initial = np.log(self.initial)
            log_transition = np.log(self.transition)
            log_emissions = np.log(emissions)
        total = log_initial[state_path[0]] + log_emissions[0, state_path[0]]
        for t in range(1, len(state_path)):
            total += log_transition[state_path[t - 1], state_path[t]]
            total += log_emissions[t, state_path[t]]
        return float(total)

    def __repr__(self) -> str:
        return f"HiddenMarkovModel(states={len(self.states)})"
