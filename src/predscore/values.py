"""Per-decision value tables and the rank order they induce.

A :class:`DecisionValues` is a named tuple of the agent's scalar value for
every action available at one decision, the action the agent actually took
and, optionally, the outcome triples the values were flattened from.
Ranks are always 1-based, assigned in descending value order with ties
broken by canonical action order, so every action set has ranks 1..|A| with
no gaps.  The rank order is derived on first use and cached on the
instance.

That order is :func:`ranked`, the one ranking rule: the agent's chosen
action and a group's vote list (rankoverlap.vote_ranklist) come from it too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .actions import canonical_key
from .errors import UnknownActionError, Validated, ValidationError, finite_floats

TRIPLE_SUM_TOLERANCE = 1e-9


class OutcomeTriple(Validated, namedtuple("OutcomeTriple", "win loss draw")):
    """(win, loss, draw) probability estimates for one action, as floats."""

    __slots__ = ()

    def __new__(cls, win: float, loss: float, draw: float):
        fractions = []
        for name, v in (("win", win), ("loss", loss), ("draw", draw)):
            out_of_range = f"{name} fraction out of [0, 1]: {{!r}}".format
            (v,) = finite_floats((v,), f"{name} fraction", out_of_range)
            if not -TRIPLE_SUM_TOLERANCE <= v <= 1 + TRIPLE_SUM_TOLERANCE:
                raise ValidationError(out_of_range(v))
            fractions.append(v)
        total = sum(fractions)
        if abs(total - 1.0) > TRIPLE_SUM_TOLERANCE:
            raise ValidationError(f"outcome fractions must sum to 1, got {total!r}")
        return super().__new__(cls, *fractions)


class DecisionValues(
    Validated, namedtuple("DecisionValues", "decision_id entries chosen outcomes")
):
    """The agent's value table for one decision.

    entries maps action id -> scalar value; chosen is the action the agent
    took; outcomes optionally maps action id -> the :class:`OutcomeTriple`
    its scalar was flattened from.  The decision id and every action id are
    non-empty, so that values.csv can hold the table.  The values are finite
    floats, read by :func:`predscore.errors.finite_floats`, and their
    spread, the largest minus the smallest, is finite too, so no loss in
    value overflows.

    A named tuple of those four fields.  Unlike the other value types it
    has an instance dict, but only the cached rank order is stored there:
    assigning to any attribute raises AttributeError.
    """

    def __new__(
        cls,
        decision_id: str,
        entries: dict[str, float],
        chosen: str,
        outcomes: dict[str, OutcomeTriple] | None = None,
    ):
        if not entries:
            raise ValidationError(f"decision {decision_id!r} has an empty value table")
        if not decision_id or "" in entries:
            raise ValidationError("decision_id and action must be non-empty")
        outcomes = dict(outcomes or {}) or None  # an empty triple map is no triple map at all
        entries = {action: finite_floats(
            (value,), f"decision {decision_id!r}: action {action!r}",
            lambda _: f"decision {decision_id!r}: value for {action!r} is not finite")[0]
            for action, value in entries.items()}
        lo, hi = min(entries.values()), max(entries.values())
        if not math.isfinite(hi - lo):  # every loss in value is a difference of two values
            raise ValidationError(f"decision {decision_id!r}: value spread from {lo!r} to {hi!r} "
                                  "is not finite")
        # a chosen action that is not a string is refused before the lookup hashes it
        if not isinstance(chosen, str) or chosen not in entries:
            raise UnknownActionError(
                f"decision {decision_id!r}: chosen action {chosen!r} not in value table"
            )
        unknown = set(outcomes or ()) - set(entries)
        if unknown:
            raise UnknownActionError(
                f"decision {decision_id!r}: outcome triples for unknown actions {sorted(unknown)}"
            )
        return super().__new__(cls, decision_id, entries, chosen, outcomes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def actions(self) -> tuple[str, ...]:
        """All action ids, best value first (ties by canonical order)."""
        return ranked(self.entries)

    @cached_property
    def _ranks(self) -> dict[str, int]:
        return {a: i + 1 for i, a in enumerate(self.actions)}

    def value(self, action: str) -> float:
        try:
            return self.entries[action]
        except KeyError:
            raise UnknownActionError(
                f"decision {self.decision_id!r}: unknown action {action!r}"
            ) from None

    def rank(self, action: str) -> int:
        self.value(action)  # refuses an unknown action
        return self._ranks[action]


def ranked(numbers: dict[str, float]) -> tuple[str, ...]:
    """The action ids of an action -> number map, largest number first,
    ties broken by canonical action order."""
    return tuple(sorted(numbers, key=lambda a: (-numbers[a], canonical_key(a))))
