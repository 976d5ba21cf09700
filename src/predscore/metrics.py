"""Partial-credit scores for predictions of an agent's action choice.

Instead of marking a prediction right/wrong, each prediction is scored by
how close the agent judged it to the action it actually took:

  loss in value   V(chosen) - V(predicted), in the agent's value units
  loss in rank    R(predicted) - R(chosen), in positions of the agent's
                  value ordering (0 = predicted exactly)
  grade           the predicted action's rank discretized into letter bins

plus two group-level averages (by value and by rank) weighted by one
group's vote count for one decision: action -> number of predictions.

A score depends only on the (decision, action) pair, so :func:`score_table`
scores each pair once and every per-prediction score is a lookup in it.
Predictions and their scores are immutable named tuples
(:class:`PredictionRecord`, :class:`MetricSample`): a bundle holds hundreds
of thousands of records, and a tuple is one small object built in one call.
Like any tuple they compare equal to a plain tuple of the same fields.
:func:`score_dataset` is the per-record view for library callers; the CLI
reads the score table and the vote counts directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, repeat
from operator import itemgetter

from .errors import UnknownActionError, Validated, ValidationError
from .values import DecisionValues


class GradeScale(Validated, namedtuple("GradeScale", "bins")):
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


class PredictionRecord(
    namedtuple("PredictionRecord", "participant_id treatment decision_id predicted")
):
    """One participant's predicted action for one decision."""

    __slots__ = ()


class MetricSample(
    namedtuple("MetricSample", "participant_id decision_id treatment predicted lv lr grade")
):
    """Per-prediction scores, ready for grouping and comparison: lv and lr
    are the loss in value and in rank, grade the predicted rank's letter."""

    __slots__ = ()


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


# decision -> action -> (LV, LR, grade), and (treatment, decision) -> {action: votes}
ScoreTable = dict[str, dict[str, tuple[float, int, str]]]
VoteCounts = dict[tuple[str, str], dict[str, int]]


def weighted_mean(pairs) -> float:
    """Mean of (value, count) pairs, as fsum(expanded) / len(expanded) bit
    for bit: fsum rounds the sum, then the division rounds again.  (The
    exact rational mean, rounded once, differs in the last bit at times.)
    A sum that overflows is refused.
    """
    pairs = list(pairs)
    total = sum(count for _, count in pairs)
    if not total or min(count for _, count in pairs) < 0:
        raise ValidationError("vote counts must be non-negative with a positive total")
    try:
        return math.fsum(chain.from_iterable(repeat(x, count) for x, count in pairs)) / total
    except OverflowError:
        raise ValidationError("the vote-weighted sum overflows") from None


def av_score(votes: dict[str, int], values: DecisionValues) -> float:
    """Average of the agent's values weighted by one group's vote count
    (action -> votes); equals the mean of V(predicted) across participants."""
    return weighted_mean((values.value(action), count) for action, count in votes.items())


def ar_score(votes: dict[str, int], values: DecisionValues) -> float:
    """Vote-count-weighted average of ranks; >= 1, and 1.0 only when every
    vote went to the top-ranked action."""
    return weighted_mean((values.rank(action), count) for action, count in votes.items())


def score_table(
    value_tables: dict[str, DecisionValues], scale: GradeScale = DEFAULT_GRADE_SCALE
) -> ScoreTable:
    """(LV, LR, grade) of every valued (decision, action) pair, scored once."""
    return {
        decision_id: {
            action: (
                loss_in_value(values, action),
                loss_in_rank(values, action),
                discretized_loss_in_rank(values, action, scale),
            )
            for action in values.entries
        }
        for decision_id, values in value_tables.items()
    }


def _by_participant_and_decision(predictions) -> list[PredictionRecord]:
    """The records sorted by (participant, decision), keeping input order
    among equal pairs: two stable sorts, so no key tuple is built.  Every
    per-record walk, here and in the report module, takes this order."""
    ordered = sorted(predictions, key=itemgetter(2))
    ordered.sort(key=itemgetter(0))
    return ordered


def score_dataset(
    predictions: list[PredictionRecord],
    value_tables: dict[str, DecisionValues],
    scale: GradeScale = DEFAULT_GRADE_SCALE,
) -> list[MetricSample]:
    """Every prediction with its scores, ordered by (participant, decision):
    a per-record view over :func:`score_table`."""
    scores = score_table(value_tables, scale)
    samples = []
    for pid, treatment, d, action in _by_participant_and_decision(predictions):
        if d not in scores:
            raise ValidationError(f"no value table for decision {d!r} (prediction by {pid!r})")
        if action not in scores[d]:
            raise UnknownActionError(f"decision {d!r}: unknown action {action!r}")
        samples.append(MetricSample(pid, d, treatment, action, *scores[d][action]))
    return samples
