"""Per-decision value tables and the rank order they induce.

A :class:`DecisionValues` is a named tuple of the agent's scalar value for
every action available at one decision, the action the agent actually took
and, optionally, the outcome triples the values were flattened from.
Ranks are always 1-based, assigned in descending value order with ties
broken by canonical action order, so every action set has ranks 1..|A| with
no gaps.  The rank order is derived on first use and cached on the
instance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .actions import canonical_key
from .errors import UnknownActionError, Validated, ValidationError

TRIPLE_SUM_TOLERANCE = 1e-9


class OutcomeTriple(Validated, namedtuple("OutcomeTriple", "win loss draw")):
    """(win, loss, draw) probability estimates for one action."""

    __slots__ = ()

    def __new__(cls, win: float, loss: float, draw: float):
        for name, v in (("win", win), ("loss", loss), ("draw", draw)):
            if not math.isfinite(v) or v < -TRIPLE_SUM_TOLERANCE or v > 1 + TRIPLE_SUM_TOLERANCE:
                raise ValidationError(f"{name} fraction out of [0, 1]: {v!r}")
        total = win + loss + draw
        if abs(total - 1.0) > TRIPLE_SUM_TOLERANCE:
            raise ValidationError(f"outcome fractions must sum to 1, got {total!r}")
        return super().__new__(cls, win, loss, draw)


class DecisionValues(
    Validated, namedtuple("DecisionValues", "decision_id entries chosen outcomes")
):
    """The agent's value table for one decision.

    entries maps action id -> scalar value; chosen is the action the agent
    took; outcomes optionally maps action id -> the :class:`OutcomeTriple`
    its scalar was flattened from.

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
        entries = dict(entries)
        outcomes = dict(outcomes or {}) or None  # an empty triple map is no triple map at all
        for action, value in entries.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"decision {decision_id!r}: value for {action!r} is not finite"
                )
        if chosen not in entries:
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
        entries = self.entries
        return tuple(sorted(entries, key=lambda a: (-entries[a], canonical_key(a))))

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


def argmax_action(entries: dict[str, float]) -> str:
    """Highest-valued action id, ties broken by canonical action order."""
    if not entries:
        raise ValidationError("empty value table")
    return min(entries, key=lambda a: (-entries[a], canonical_key(a)))
