"""Partial-credit scores for predictions of an agent's action choice.

Instead of marking a prediction right/wrong, each prediction is scored by
how close the agent judged it to the action it actually took:

  loss in value   V(chosen) - V(predicted), in the agent's value units
  loss in rank    R(predicted) - R(chosen), in positions of the agent's
                  value ordering (0 = predicted exactly)
  grade           the predicted action's rank discretized into letter bins

plus two group-level weighted averages (by value and by rank) over a set
of predictions for one decision.

Predictions and their scores are immutable named tuples
(:class:`PredictionRecord`, :class:`MetricSample`): a bundle holds hundreds
of thousands of them, and a tuple is one small object built in one call.
Like any tuple they compare equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

from .errors import ValidationError
from .values import DecisionValues


class GradeScale(NamedTuple("GradeScale", [("bins", tuple[tuple[int | None, str], ...])])):
    """Ordered rank bins mapping a rank to a letter grade.

    bins are (max rank inclusive, label) with strictly increasing
    thresholds; the final bin has threshold None and catches everything
    worse.
    """

    __slots__ = ()

    def __new__(cls, bins: tuple[tuple[int | None, str], ...]):
        if len(bins) < 1:
            raise ValidationError("grade scale needs at least one bin")
        *bounded, (last, _) = bins
        if last is not None:
            raise ValidationError("final grade bin must be unbounded (threshold None)")
        thresholds = [t for t, _ in bounded]
        if any(t is None for t in thresholds):
            raise ValidationError("only the final bin may be unbounded")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValidationError(f"grade thresholds must be strictly increasing: {thresholds}")
        labels = [label for _, label in bins]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"grade labels must be unique: {labels}")
        return super().__new__(cls, bins)

    def grade(self, rank: int) -> str:
        if rank < 1:
            raise ValidationError(f"ranks start at 1, got {rank}")
        for threshold, label in self.bins:
            if threshold is None or rank <= threshold:
                return label
        raise AssertionError("unreachable: final bin is unbounded")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.bins)


# Letter grades over blocks of four ranks: 1-4 A, 5-8 B, 9-12 C, 13-16 D,
# 17 and worse F.
DEFAULT_GRADE_SCALE = GradeScale(((4, "A"), (8, "B"), (12, "C"), (16, "D"), (None, "F")))


class PredictionRecord(NamedTuple):
    """One participant's predicted action for one decision."""

    participant_id: str
    treatment: str
    decision_id: str
    predicted: str


class MetricSample(NamedTuple):
    """Per-prediction scores, ready for grouping and comparison."""

    participant_id: str
    decision_id: str
    treatment: str
    predicted: str
    lv: float
    lr: int
    grade: str


def loss_in_value(values: DecisionValues, predicted: str) -> float:
    """V(chosen) - V(predicted); 0 iff the agent valued both equally."""
    return values.value(values.chosen) - values.value(predicted)


def loss_in_rank(values: DecisionValues, predicted: str) -> int:
    """R(predicted) - R(chosen); 0 iff the prediction is the chosen action.

    Positive when the prediction sits below the chosen action in the
    agent's ordering, so worse predictions score higher.
    """
    return values.rank(predicted) - values.rank(values.chosen)


def discretized_loss_in_rank(
    values: DecisionValues, predicted: str, scale: GradeScale = DEFAULT_GRADE_SCALE
) -> str:
    """Letter grade of the predicted action's rank."""
    return scale.grade(values.rank(predicted))


def _check_group(predictions, values: DecisionValues):
    if not predictions:
        raise ValidationError("empty prediction group")
    for rec in predictions:
        if rec.decision_id != values.decision_id:
            raise ValidationError(
                f"prediction by {rec.participant_id!r} is for decision "
                f"{rec.decision_id!r}, not {values.decision_id!r}"
            )


def av_score(predictions: list[PredictionRecord], values: DecisionValues) -> float:
    """Vote-count-weighted average of the agent's values over the group's
    predictions; equals the mean of V(predicted) across participants."""
    _check_group(predictions, values)
    return math.fsum(values.value(rec.predicted) for rec in predictions) / len(predictions)


def ar_score(predictions: list[PredictionRecord], values: DecisionValues) -> float:
    """Vote-count-weighted average of ranks; >= 1, and 1.0 only when every
    participant predicted the top-ranked action."""
    _check_group(predictions, values)
    return math.fsum(values.rank(rec.predicted) for rec in predictions) / len(predictions)


def score_dataset(
    predictions: list[PredictionRecord],
    value_tables: dict[str, DecisionValues],
    scale: GradeScale = DEFAULT_GRADE_SCALE,
) -> list[MetricSample]:
    """Score every prediction, ordered by (participant, decision); each
    distinct (decision, action) pair is scored once and the result shared
    through a per-decision table of at most |A| entries."""
    tables: dict[str, dict[str, tuple[float, int, str]]] = {}
    samples = []
    for participant_id, treatment, decision_id, predicted in sorted(
        predictions, key=attrgetter("participant_id", "decision_id")
    ):
        table = tables.get(decision_id)
        if table is None:
            if decision_id not in value_tables:
                raise ValidationError(
                    f"no value table for decision {decision_id!r} "
                    f"(prediction by {participant_id!r})"
                )
            table = tables[decision_id] = {}
        score = table.get(predicted)
        if score is None:
            values = value_tables[decision_id]
            score = table[predicted] = (
                loss_in_value(values, predicted),
                loss_in_rank(values, predicted),
                discretized_loss_in_rank(values, predicted, scale),
            )
        samples.append(MetricSample(participant_id, decision_id, treatment, predicted, *score))
    return samples
