"""Viterbi and List Viterbi decoding.

The List Viterbi Algorithm (Seshadri & Sundberg, IEEE Trans. Comm. 1994 —
the paper's reference [5]) generalises Viterbi to produce the *top-k* state
sequences for an observation sequence. QUEST uses it to enumerate the top-k
configurations with their confidence values. We implement the *parallel*
LVA: dynamic programming where every (time, state) cell keeps its k best
partial paths.

Two implementations share one contract and return identical results:

``list_viterbi_reference``
    The per-cell heap formulation: every ``(time, state)`` cell holds up to
    ``k`` ``(log-probability, path-tuple)`` entries, extended predecessor by
    predecessor in pure Python. Retained as the executable specification
    and exercised by the ``tests/perf`` parity suite and the test-side
    oracle (``tests/oracle.py``); the engine never calls it.

``list_viterbi`` (vectorised, the default)
    The same dynamic program over numpy ``(n, k)`` score tensors and
    ``(T, n, k)`` backpointer tensors: each step broadcasts every
    predecessor cell against the transition matrix at once and selects each
    cell's k-best with a partition-bounded stable sort, so the
    per-candidate Python loop (and its path-tuple allocations) disappears.
    Scores are bit-identical — the float additions happen in the same
    association order — and ties on equal log-probabilities are resolved
    exactly like the reference (selection keeps generation order, output
    sorts tied paths lexicographically) by maintaining a per-entry
    *lexicographic rank* inductively instead of materialising path tuples:
    a path is the predecessor's path plus one state, so comparing
    (predecessor rank, state) pairs compares full paths. Paths are
    reconstructed from backpointers only for the k sequences returned.

The last step decodes straight to the global top-k instead of filling
every cell and ranking the result. The *leader* of a (target state s,
predecessor cell r) pair is the candidate extending r's rank-0 entry. A
cell's entries are sorted descending and IEEE addition rounds
monotonically (``x >= y`` implies ``fl(a + x) >= fl(a + y)``), so
``(log_transition[r, s] + score) + log_emission[s]`` is largest at rank 0:
the leader bounds every candidate of its pair. Let the bound be the k-th
largest leader, counting duplicates (-inf when fewer than k leaders are
finite). The pairs whose leader reaches it are at least k, and each is a
distinct candidate at or above the bound in its target's cell, so the
cells keep at least k entries at or above the bound after their per-cell
truncation: the k-th best entry overall is at or above it. Only those
pairs are expanded, only candidates at or above the bound (ties kept)
survive, each cell is truncated to k as a full step would (value, then
generation order), and the survivors are ranked by (value, predecessor
lexrank, state). Below the bound nothing could reach the answer, so the
result is the full step's, float for float. At mondial's 116 states and
k = 30 this turns the T = 2 decode (every two-keyword query) from 1.6 to
0.3 ms and T = 3 from 9 to 1.5 ms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.hmm.model import HiddenMarkovModel

__all__ = ["DecodedPath", "viterbi", "list_viterbi", "list_viterbi_reference"]

_NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class DecodedPath:
    """One decoded state sequence with its joint log-probability."""

    states: tuple[int, ...]
    log_probability: float

    @property
    def probability(self) -> float:
        """The joint probability (may underflow to 0.0 for long sequences)."""
        return float(np.exp(self.log_probability))


def _log(array: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(array)


def viterbi(model: HiddenMarkovModel, emissions: np.ndarray) -> DecodedPath:
    """The single most likely state sequence (classic Viterbi)."""
    paths = list_viterbi(model, emissions, k=1)
    return paths[0]


def _check_inputs(
    model: HiddenMarkovModel, emissions: np.ndarray, k: int
) -> tuple[int, int]:
    if k <= 0:
        raise ModelError(f"k must be positive, got {k}")
    T, n = emissions.shape
    if n != len(model.states):
        raise ModelError("emission width does not match the state space")
    return T, n


def _stable_topk_rows(candidates: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k best candidates, stable-descending.

    Equivalent to ``np.argsort(-candidates, axis=1, kind="stable")[:, :k]``
    — among equal scores, lower candidate indices (generation order) win —
    but computed with ``np.partition``: the per-row k-th value bounds the
    survivors (at least k per row by construction), and one flat
    three-key sort of the survivors by (row, descending score, ascending
    index) reproduces the stable order; the first k of each row block are
    the selection.
    """
    n, m = candidates.shape
    if m <= k:
        return np.argsort(-candidates, axis=1, kind="stable")
    cutoffs = np.partition(candidates, m - k, axis=1)[:, m - k]
    rows, cols = np.nonzero(candidates >= cutoffs[:, None])
    values = candidates[rows, cols]
    order = np.lexsort((cols, -values, rows))
    starts = np.searchsorted(rows[order], np.arange(n))
    return cols[order[(starts[:, None] + np.arange(k)).ravel()]].reshape(n, k)


def _last_step_topk(
    scores: np.ndarray,
    lexrank: np.ndarray,
    log_transition: np.ndarray,
    log_emit: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The last step, decoded straight to the global top-k.

    Returns ``(values, targets, preds, ranks)`` of the k best sequences in
    output order: sequence i extends the previous step's entry
    ``(preds[i], ranks[i])`` by state ``targets[i]``. Only the (target,
    cell) pairs whose leader reaches the bound are expanded; the module
    docstring shows why this equals a full step plus the global ranking.
    """
    n = scores.shape[0]
    cells = np.flatnonzero(scores[:, 0] > _NEG_INF)
    if cells.size == 0:
        none = np.empty(0, dtype=np.int64)
        return np.empty(0), none, none, none
    # leaders[s, c]: the candidate extending cell c's rank-0 entry into
    # state s, by the expression every step uses, so bit-equal to it.
    leaders = (log_transition[cells].T + scores[cells, 0]) + log_emit[:, None]
    finite = leaders[leaders > _NEG_INF]
    bound = (
        np.partition(finite, finite.size - k)[finite.size - k]
        if finite.size >= k
        else _NEG_INF
    )
    targets, columns = np.nonzero((leaders >= bound) & (leaders > _NEG_INF))
    preds = cells[columns]
    # Every entry of each expanded pair; empty slots give -inf and drop
    # out with the candidates below the bound.
    expanded = (
        log_transition[preds, targets][:, None] + scores[preds]
    ) + log_emit[targets][:, None]
    pair, ranks = np.nonzero((expanded >= bound) & (expanded > _NEG_INF))
    values = expanded[pair, ranks]
    targets, preds = targets[pair], preds[pair]
    if np.bincount(targets, minlength=n).max() > k:
        # A cell keeps its k best by (value desc, generation order: state,
        # then rank), as a full step would, before the global ranking.
        order = np.lexsort((ranks, preds, -values, targets))
        grouped = targets[order]
        within = np.arange(order.size) - np.searchsorted(grouped, grouped)
        order = order[within < k]
        values, targets = values[order], targets[order]
        preds, ranks = preds[order], ranks[order]
    # The reference's global order: value desc, then path — the
    # predecessor entry's lexrank, then the final state.
    ranked = np.lexsort((targets, lexrank[preds, ranks], -values))[:k]
    return values[ranked], targets[ranked], preds[ranked], ranks[ranked]


def list_viterbi(
    model: HiddenMarkovModel,
    emissions: np.ndarray,
    k: int,
) -> list[DecodedPath]:
    """Top-*k* most likely state sequences (parallel List Viterbi).

    Args:
        model: the HMM supplying initial and transition distributions.
        emissions: shape ``(T, n)`` emission probabilities (see
            :meth:`HiddenMarkovModel.emission_matrix`).
        k: number of sequences to return (fewer if the model admits fewer
            paths with non-zero probability).

    Returns:
        Decoded paths sorted by descending log-probability. Ties break on
        the state tuple for determinism.
    """
    T, n = _check_inputs(model, emissions, k)

    log_initial = _log(model.initial)
    log_transition = _log(model.transition)
    log_emissions = _log(emissions)

    # scores[s, j]: log-probability of cell s's j-th ranked partial path
    # (-inf marks an empty slot). Slot 0 of the first step is the only
    # occupied rank: one path per state.
    scores = np.full((n, k), _NEG_INF)
    scores[:, 0] = log_initial + log_emissions[0]
    # Backpointers for t >= 1: entry (t, s, j) extends the partial path at
    # cell (t-1, bp_state[t, s, j]) rank bp_rank[t, s, j] by state s.
    bp_state = np.zeros((T, n, k), dtype=np.int32)
    bp_rank = np.zeros((T, n, k), dtype=np.int32)
    # lexrank[s, j]: position of entry (s, j)'s path in the lexicographic
    # order over ALL current entries. Every occupied entry holds a
    # distinct path (within a cell, entries extend distinct predecessor
    # entries; across cells, paths differ in their last state), so this
    # is a strict total order — equal-score ties are resolved by
    # comparing these integers instead of materialised path tuples.
    # Inductive invariant: path(a) < path(b) iff, comparing their
    # predecessor ranks first and their own states second,
    # (lexrank'[pred(a)], state(a)) < (lexrank'[pred(b)], state(b)).
    lexrank = np.full((n, k), n * k, dtype=np.int64)
    lexrank[:, 0] = np.arange(n)  # t = 0: the path (s,) sorts by s
    row_states = np.repeat(np.arange(n), k)  # state of each flat (s, j) slot

    def path_of(t: int, s: int, j: int) -> tuple[int, ...]:
        """Reconstruct the state tuple of entry (t, s, j) from backpointers."""
        reverse = []
        while t > 0:
            reverse.append(s)
            s, j = int(bp_state[t, s, j]), int(bp_rank[t, s, j])
            t -= 1
        reverse.append(s)
        return tuple(reversed(reverse))

    for t in range(1, T - 1):
        # Only occupied predecessor entries generate candidates (at the
        # first step that is one per state, a 30x narrower matrix than
        # the full (n, n*k)); flatnonzero of the row-major scores yields
        # them exactly in the reference's generation order (r ascending,
        # rank ascending).
        occupied = np.flatnonzero(scores.reshape(-1) > _NEG_INF)
        if occupied.size == 0:
            return []
        occupied_state = occupied // k
        occupied_rank = occupied % k
        # candidates[s, j] = scores[r_j, i_j] + transition[r_j, s] + emit.
        # IEEE addition commutes bit-exactly, so the target-major
        # `(step + logp) + emit` equals the reference's
        # `(logp + step) + emit` float for float.
        candidates = (
            log_transition.T[:, occupied_state]
            + scores.reshape(-1)[occupied][None, :]
        ) + log_emissions[t][:, None]
        # Stable descending selection = heapq.nlargest over candidates in
        # generation order: among equal scores the first-generated
        # survive, exactly like the reference.
        width = min(k, occupied.size)
        order = _stable_topk_rows(candidates, k)[:, :width]
        selected = np.take_along_axis(candidates, order, axis=1)
        pred_state = occupied_state[order]
        pred_ranks = occupied_rank[order]
        # The reference sorts each cell by (-logp, path): among the
        # selected equal scores, paths ascend lexicographically — which,
        # within one cell (same final state), is exactly ascending
        # predecessor lexrank. One flat three-key sort applies it to
        # every cell at once.
        pred_lex = lexrank.reshape(-1)[occupied][order]
        flat_rows = (
            row_states if width == k else np.repeat(np.arange(n), width)
        )
        resort = np.lexsort((pred_lex.ravel(), -selected.ravel(), flat_rows))
        scores = np.full((n, k), _NEG_INF)
        scores[:, :width] = selected.ravel()[resort].reshape(n, width)
        bp_state[t, :, :width] = pred_state.ravel()[resort].reshape(n, width)
        bp_rank[t, :, :width] = pred_ranks.ravel()[resort].reshape(n, width)
        # Re-rank for the next step: order every entry by (predecessor
        # path, own state); empty slots key past every real path.
        keys = np.full(n * k, np.iinfo(np.int64).max)
        filled = (
            np.arange(n)[:, None] * k + np.arange(width)[None, :]
        ).ravel()
        keys[filled] = np.where(
            scores.reshape(-1)[filled] > _NEG_INF,
            pred_lex.ravel()[resort] * n + flat_rows,
            np.iinfo(np.int64).max,
        )
        flat_order = np.argsort(keys, kind="stable")
        lexrank = np.empty(n * k, dtype=np.int64)
        lexrank[flat_order] = np.arange(n * k)
        lexrank = lexrank.reshape(n, k)

    if T == 1:
        # The global ranking of single-state paths: the reference sorts
        # them by (-logp, path) — here (-logp, state) — and keeps k.
        flat = scores[:, 0]
        ranked = np.lexsort((np.arange(n), -flat))
        ranked = ranked[flat[ranked] > _NEG_INF][:k]
        return [
            DecodedPath(states=(int(s),), log_probability=float(flat[s]))
            for s in ranked
        ]
    values, targets, preds, ranks = _last_step_topk(
        scores, lexrank, log_transition, log_emissions[T - 1], k
    )
    return [
        DecodedPath(
            states=path_of(T - 2, int(r), int(j)) + (int(s),),
            log_probability=float(value),
        )
        for value, s, r, j in zip(values, targets, preds, ranks)
    ]


def list_viterbi_reference(
    model: HiddenMarkovModel, emissions: np.ndarray, k: int
) -> list[DecodedPath]:
    """The pure-Python parallel LVA (executable specification).

    Kept verbatim as the parity oracle for the vectorised kernel; see the
    module docstring. Semantics are identical to :func:`list_viterbi`.
    """
    T, n = _check_inputs(model, emissions, k)

    log_initial = _log(model.initial)
    log_transition = _log(model.transition)
    log_emissions = _log(emissions)

    # cell[t][s] = up to k tuples (logp, path) sorted descending.
    previous: list[list[tuple[float, tuple[int, ...]]]] = [
        [(float(log_initial[s] + log_emissions[0, s]), (s,))]
        if log_initial[s] + log_emissions[0, s] > _NEG_INF
        else []
        for s in range(n)
    ]

    for t in range(1, T):
        current: list[list[tuple[float, tuple[int, ...]]]] = []
        for s in range(n):
            emit = log_emissions[t, s]
            if emit == _NEG_INF:
                current.append([])
                continue
            # Gather candidate extensions from every predecessor's list.
            candidates: list[tuple[float, tuple[int, ...]]] = []
            for r in range(n):
                step = log_transition[r, s]
                if step == _NEG_INF or not previous[r]:
                    continue
                for logp, path in previous[r]:
                    candidates.append((logp + step + emit, path + (s,)))
            if len(candidates) > k:
                candidates = heapq.nlargest(k, candidates, key=lambda c: c[0])
            candidates.sort(key=lambda c: (-c[0], c[1]))
            current.append(candidates[:k])
        previous = current

    finals = [entry for cell in previous for entry in cell]
    finals.sort(key=lambda c: (-c[0], c[1]))
    return [
        DecodedPath(states=path, log_probability=logp) for logp, path in finals[:k]
    ]
