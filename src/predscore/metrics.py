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
A bundle's predictions are :class:`Predictions`: four equal-length columns
of interned strings (participant, treatment, decision, predicted action),
one list each, so a prediction costs four list slots and no object of its
own.  Every per-prediction walk in the package reads the columns, in the
order of :func:`_by_participant_and_decision`.  Read as a sequence,
Predictions yields one :class:`PredictionRecord` at a time: that view, and
:func:`score_dataset`'s :class:`MetricSample` list, are for library
callers, and no CLI command builds either.  Records and samples are
immutable named tuples, so like any tuple they compare equal to a plain
tuple of the same fields.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, repeat

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


class Predictions(Sequence):
    """A read-only sequence of :class:`PredictionRecord`, stored as four
    equal-length lists: ``columns`` is (participant ids, treatments,
    decision ids, predicted actions), and item i of each list is a field of
    prediction i.  Its length reads the columns; only indexing and
    iteration build records, one at a time.  Two Predictions are equal when
    their columns are; one equals a tuple or list of records when it holds
    the same records in the same order.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns=((), (), (), ())):
        columns = tuple(c if type(c) is list else list(c) for c in columns)
        if len(columns) != 4 or len(set(map(len, columns))) > 1:
            raise ValidationError("predictions need four columns of one length")
        self._columns = columns

    @classmethod
    def of(cls, predictions) -> Predictions:
        """predictions itself if it is a Predictions, else the columns of
        an iterable of four-field records."""
        if isinstance(predictions, cls):
            return predictions
        records = tuple(predictions)
        if any(len(record) != 4 for record in records):
            raise ValidationError("a prediction has four fields: participant_id, treatment, "
                                  "decision_id and predicted")
        return cls(zip(*records)) if records else cls()

    @property
    def columns(self) -> tuple[list[str], list[str], list[str], list[str]]:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(column[index] for column in self._columns)
        return PredictionRecord(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(PredictionRecord._make, zip(*self._columns))

    def __eq__(self, other):
        if isinstance(other, Predictions):
            return self._columns == other._columns
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # the columns are lists

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._columns!r})"

    def __reduce__(self):  # every pickle protocol, as for a tuple
        return type(self), (self._columns,)


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


def _by_participant_and_decision(predictions: Predictions) -> array:
    """The positions of the predictions sorted by (participant, decision),
    keeping input order among equal pairs: two stable sorts of one list of
    positions, so no key tuple is built.  The sorted positions are kept as
    an array of C ints, 4 bytes each, not as a list of int objects.  Every
    per-prediction walk, here and in the report module, takes this order."""
    participant_ids, _, decision_ids, _ = predictions.columns
    order = sorted(range(len(predictions)), key=decision_ids.__getitem__)
    order.sort(key=participant_ids.__getitem__)
    return array("I", order)


def score_dataset(
    predictions,
    value_tables: dict[str, DecisionValues],
    scale: GradeScale = DEFAULT_GRADE_SCALE,
) -> list[MetricSample]:
    """Every prediction, a Predictions or an iterable of records, with its
    scores, ordered by (participant, decision): a per-record view over
    :func:`score_table`."""
    predictions = Predictions.of(predictions)
    scores = score_table(value_tables, scale)
    participant_ids, treatments, decision_ids, predicted = predictions.columns
    samples = []
    for i in _by_participant_and_decision(predictions):
        pid, d, action = participant_ids[i], decision_ids[i], predicted[i]
        if d not in scores:
            raise ValidationError(f"no value table for decision {d!r} (prediction by {pid!r})")
        if action not in scores[d]:
            raise UnknownActionError(f"decision {d!r}: unknown action {action!r}")
        samples.append(MetricSample(pid, d, treatments[i], action, *scores[d][action]))
    return samples
