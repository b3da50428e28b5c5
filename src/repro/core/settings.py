"""Engine settings: the paper's tunable parameters in one place.

``O_Cap``, ``O_Cf``, ``O_C`` and ``O_I`` are the uncertainty (ignorance)
degrees of Algorithm 1; they control how much each evidence source sways
the Dempster-Shafer combinations, and tuning them is how QUEST "adapts to
different working conditions" (demo message four).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import QuestError

__all__ = ["QuestSettings"]


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise QuestError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class QuestSettings:
    """All engine knobs, with the defaults used across the benchmarks.

    Attributes:
        k: number of explanations returned by a search.
        candidate_factor: the intermediate stages (configurations from List
            Viterbi, interpretations entering the final combination) keep
            ``k * candidate_factor`` candidates. Over-generating lets the
            Dempster-Shafer combination and the empty-result filter rescue
            answers the forward ranking alone would have cut — essential on
            hidden sources, where forward evidence is weak.
        uncertainty_apriori: ``O_Cap`` — ignorance of the a-priori forward
            mode. Increase on well-understood schemas with no feedback.
        uncertainty_feedback: ``O_Cf`` — ignorance of the feedback forward
            mode. Should start high (little training data) and decrease as
            positive feedback accumulates.
        uncertainty_forward: ``O_C`` — ignorance of the combined forward
            evidence in the final combination.
        uncertainty_backward: ``O_I`` — ignorance of the backward evidence.
        use_feedback: run the feedback HMM (requires a trained model).
        use_apriori: run the a-priori HMM.
        mutual_information_weights: weigh schema-graph join edges by the
            normalised information distance (needs instance access);
            ``False`` gives uniform weights (ablation E8, hidden sources).
        execute_explanations: run the final SQL through the wrapper and
            attach result counts (skipped automatically when the wrapper
            has no endpoint).
        min_explanation_results: when executing, drop explanations whose
            query returns fewer rows than this. The default of 1 enforces
            the paper's requirement to "consider only join-paths actually
            existing in the database instance"; 0 keeps empty answers.
        default_deadline_ms: per-request time budget applied when the
            caller supplies none (HTTP requests without an
            ``X-Quest-Deadline-Ms`` header, direct ``QuestService.search``
            calls). ``None`` (the default) means unbounded. On expiry the
            pipeline returns best-so-far results with ``trace.degraded``
            set, or raises :class:`repro.errors.DeadlineExceededError`
            (HTTP 504) when nothing salvageable exists yet.
    """

    k: int = 10
    candidate_factor: int = 3
    uncertainty_apriori: float = 0.3
    uncertainty_feedback: float = 0.5
    uncertainty_forward: float = 0.3
    uncertainty_backward: float = 0.3
    use_feedback: bool = False
    use_apriori: bool = True
    mutual_information_weights: bool = True
    execute_explanations: bool = True
    min_explanation_results: int = 1
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QuestError(f"k must be positive, got {self.k}")
        if self.candidate_factor <= 0:
            raise QuestError(
                f"candidate_factor must be positive, got {self.candidate_factor}"
            )
        _check_unit("uncertainty_apriori", self.uncertainty_apriori)
        _check_unit("uncertainty_feedback", self.uncertainty_feedback)
        _check_unit("uncertainty_forward", self.uncertainty_forward)
        _check_unit("uncertainty_backward", self.uncertainty_backward)
        if not (self.use_apriori or self.use_feedback):
            raise QuestError("at least one forward operating mode must be enabled")
        if self.min_explanation_results < 0:
            raise QuestError("min_explanation_results must be non-negative")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise QuestError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )

    def updated(self, **changes: object) -> "QuestSettings":
        """A copy with *changes* applied (validates the result)."""
        return replace(self, **changes)  # type: ignore[arg-type]
