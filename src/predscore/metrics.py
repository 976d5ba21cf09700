"""Partial-credit scores for predictions of an agent's action choice.

Instead of marking a prediction right/wrong, each prediction is scored by
how close the agent judged it to the action it actually took:

  loss in value   V(chosen) - V(predicted), in the agent's value units
  loss in rank    R(predicted) - R(chosen), in positions of the agent's
                  value ordering (0 = predicted exactly)
  grade           the predicted action's rank discretized into letter bins

and a group's mean of a score, weighted by the group's vote count for one
decision (action -> number of predictions), is :func:`weighted_mean`.

A score depends only on the (decision, action) pair, so :func:`score_table`
scores each pair once and every per-prediction score is a lookup in it.
A bundle's predictions are :class:`Predictions`: four equal-length columns
of interned strings (participant, treatment, decision, predicted action),
one list each, so a prediction costs four list slots and no object of its
own.  Every per-prediction walk in the package reads the columns, in the
order of :func:`by_participant_and_decision`.  Two reductions of a bundle
are made here and nowhere else: :func:`vote_tally` counts the predictions
of each (treatment, decision, action), and :func:`participant_totals`, the
one walk that sums each participant's losses, gives the per-participant
totals of both loss spaces, the value space summing LV and the rank space
LR, as treatment -> (value totals, rank totals), and is the one place that
refuses a total that overflows.  These three are the package's shared
reductions: :mod:`predscore.dataset`, :mod:`predscore.parsecache` and
:mod:`predscore.report` call them, and the package does not export them.
:mod:`predscore.parsecache` stores the order and both reductions with a
cached bundle and attaches them to the Predictions that
:func:`predscore.dataset.read_bundle` returns, the totals as the walk
returned them, with the score table they were summed from, and each
function returns the attached result where it is valid: the totals where
they were summed from the score table given and are finite in the spaces
asked for.
:func:`score_dataset`'s :class:`MetricSample` list is for library callers,
and no CLI command builds one.  Samples are immutable named tuples, so
like any tuple they compare equal to a plain tuple of the same fields.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, namedtuple
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
        # a label is named before the set below hashes it
        if non_strings := [label for label in labels if not isinstance(label, str)]:
            raise ValidationError(f"grade label {non_strings[0]!r} is not a string")
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


class MetricSample(
    namedtuple("MetricSample", "participant_id decision_id treatment predicted lv lr grade")
):
    """Per-prediction scores, ready for grouping and comparison: lv and lr
    are the loss in value and in rank, grade the predicted rank's letter."""

    __slots__ = ()


class Predictions:
    """A bundle's predictions, stored as four equal-length lists:
    ``columns`` is (participant ids, treatments, decision ids, predicted
    actions), and item i of each list is a field of prediction i.  Its
    length reads the columns, iterating it yields each prediction as a
    plain 4-tuple, and two Predictions are equal when their columns are.
    Like a list, it is unhashable.

    ``_order``, ``_votes`` and ``_totals`` are what the parse cache,
    :mod:`predscore.parsecache`, attached: the order of
    :func:`by_participant_and_decision`, the tally of :func:`vote_tally`,
    and the totals of :func:`participant_totals`, with the score table
    they were summed from.  Only the parse cache sets them, on a
    Predictions that read_bundle made, and ``__init__`` never copies them,
    so a Predictions built from any columns walks afresh.
    """

    columns: tuple[list[str], list[str], list[str], list[str]]
    _order: array | None = None
    _votes: dict[tuple[str, str, str], int] | None = None
    _totals: tuple[ScoreTable, dict[str, tuple]] | None = None  # tuple: value and rank totals

    def __init__(self, columns=((), (), (), ())):
        columns = tuple(c if type(c) is list else list(c) for c in columns)
        if len(columns) != 4 or len(set(map(len, columns))) > 1:
            raise ValidationError("predictions need four columns of one length")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other):
        if isinstance(other, Predictions):
            return self.columns == other.columns
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.columns!r})"


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


SPACES = ("value", "rank")  # the loss spaces, in the order of each participant's (LV, LR) totals

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


def by_participant_and_decision(predictions: Predictions) -> array:
    """The positions of the predictions sorted by (participant, decision),
    keeping input order among equal pairs: two stable sorts of one list of
    positions, so no key tuple is built.  The sorted positions are kept as
    an array of C ints, 4 bytes each, not as a list of int objects.  Every
    per-prediction walk, here and in the report module, takes this order.
    The order that the parse cache attached to predictions, computed from
    these same columns by this function, is returned with no sort."""
    if predictions._order is not None:
        return predictions._order
    participant_ids, _, decision_ids, _ = predictions.columns
    order = sorted(range(len(predictions)), key=decision_ids.__getitem__)
    order.sort(key=participant_ids.__getitem__)
    return array("I", order)


def vote_tally(predictions: Predictions) -> dict[tuple[str, str, str], int]:
    """(treatment, decision, action) -> the number of predictions naming
    it, in first-seen order.  The tally the parse cache attached to
    predictions, counted from these same columns by this function, is
    returned with no walk."""
    if predictions._votes is not None:
        return predictions._votes
    _, treatments, decision_ids, predicted = predictions.columns
    return Counter(zip(treatments, decision_ids, predicted))


def participant_totals(predictions: Predictions, scores: ScoreTable, spaces=SPACES) -> dict:
    """treatment -> (value totals, rank totals), for each treatment that a
    prediction names, in sorted order: each participant's summed loss
    across decisions, LV in value space and LR in rank space, one total per
    participant in sorted participant order.  Each is a sequence of
    doubles: an ``array("d")`` from the walk, or, as the parse cache
    attached them, a ``memoryview`` of format "d" over its entry's bytes.

    The totals the parse cache attached to predictions are returned with
    no walk when scores is the score table they were summed from and every
    total in spaces is finite.  Otherwise one walk over the columns, by
    participant and then decision, sums both spaces.  Each total starts
    from 0.0 and adds its losses in decision order, whatever the order of
    the predictions, so equal bundles give equal float sums.  A total that
    overflows is refused in a space asked for, the first by space, then
    treatment, then participant, with the participant, the treatment and
    the space."""
    fields = [SPACES.index(space) for space in spaces]
    attached = predictions._totals
    if attached is not None and attached[0] == scores and all(
            all(map(math.isfinite, pair[f])) for f in fields for pair in attached[1].values()):
        return attached[1]
    participant_ids, treatments, decision_ids, predicted = predictions.columns
    sums = {t: ({}, {}) for t in sorted(set(treatments))}
    for i in by_participant_and_decision(predictions):
        (value_totals, rank_totals), pid = sums[treatments[i]], participant_ids[i]
        lv, lr, _ = scores[decision_ids[i]][predicted[i]]
        value_totals[pid] = value_totals.get(pid, 0.0) + lv
        rank_totals[pid] = rank_totals.get(pid, 0.0) + lr
    for space, f in zip(spaces, fields):
        for t, pair in sums.items():
            for pid, total in pair[f].items():
                if not math.isfinite(total):
                    raise ValidationError(f"the {space}-space loss sum of participant {pid!r} "
                                          f"in treatment {t!r} overflows")
    return {t: tuple(array("d", totals.values()) for totals in pair) for t, pair in sums.items()}


def score_dataset(
    predictions: Predictions,
    value_tables: dict[str, DecisionValues],
    scale: GradeScale = DEFAULT_GRADE_SCALE,
) -> list[MetricSample]:
    """Every prediction with its scores, ordered by (participant,
    decision): a per-prediction view over :func:`score_table`."""
    scores = score_table(value_tables, scale)
    participant_ids, treatments, decision_ids, predicted = predictions.columns
    samples = []
    for i in by_participant_and_decision(predictions):
        pid, d, action = participant_ids[i], decision_ids[i], predicted[i]
        if d not in scores:
            raise ValidationError(f"no value table for decision {d!r} (prediction by {pid!r})")
        if action not in scores[d]:
            raise UnknownActionError(f"decision {d!r}: unknown action {action!r}")
        samples.append(MetricSample(pid, d, treatments[i], action, *scores[d][action]))
    return samples
