"""Per-decision value tables and the rank order they induce.

A :class:`DecisionValues` holds the agent's scalar value for every action
available at one decision plus the action the agent actually took.  Ranks
are always 1-based, assigned in descending value order with ties broken by
canonical action order, so every action set has ranks 1..|A| with no gaps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .actions import canonical_key
from .errors import UnknownActionError, ValidationError

TRIPLE_SUM_TOLERANCE = 1e-9


class OutcomeTriple(NamedTuple("OutcomeTriple", [("win", float), ("loss", float), ("draw", float)])):
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


class DecisionValues:
    """The agent's value table for one decision.

    entries maps action id -> scalar value; chosen is the action the agent
    took; outcomes optionally carries the raw (win, loss, draw) triples the
    scalars were flattened from.

    Immutable: the four fields compare and hash as their tuple, and the
    rank order is derived once, here, rather than per lookup.
    """

    __slots__ = ("decision_id", "entries", "chosen", "outcomes", "_ordering", "_ranks")

    def __init__(
        self,
        decision_id: str,
        entries: dict[str, float],
        chosen: str,
        outcomes: dict[str, OutcomeTriple] | None = None,
    ):
        if not entries:
            raise ValidationError(f"decision {decision_id!r} has an empty value table")
        entries = dict(entries)
        if outcomes is not None:
            # normalize: an empty triple map is no triple map at all
            outcomes = dict(outcomes) or None
        for action, value in entries.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"decision {decision_id!r}: value for {action!r} is not finite"
                )
        if chosen not in entries:
            raise UnknownActionError(
                f"decision {decision_id!r}: chosen action {chosen!r} not in value table"
            )
        if outcomes is not None:
            unknown = set(outcomes) - set(entries)
            if unknown:
                raise UnknownActionError(
                    f"decision {decision_id!r}: outcome triples for unknown actions {sorted(unknown)}"
                )
        ordering = tuple(sorted(entries, key=lambda a: (-entries[a], canonical_key(a))))
        init = object.__setattr__
        init(self, "decision_id", decision_id)
        init(self, "entries", entries)
        init(self, "chosen", chosen)
        init(self, "outcomes", outcomes)
        init(self, "_ordering", ordering)
        init(self, "_ranks", {a: i + 1 for i, a in enumerate(ordering)})

    def _key(self) -> tuple:
        return (self.decision_id, self.entries, self.chosen, self.outcomes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"DecisionValues(decision_id={self.decision_id!r}, entries={self.entries!r}, "
            f"chosen={self.chosen!r}, outcomes={self.outcomes!r})"
        )

    def __reduce__(self):
        return (DecisionValues, self._key())

    @property
    def actions(self) -> tuple[str, ...]:
        """All action ids, best value first (ties by canonical order)."""
        return self._ordering

    def value(self, action: str) -> float:
        try:
            return self.entries[action]
        except KeyError:
            raise UnknownActionError(
                f"decision {self.decision_id!r}: unknown action {action!r}"
            ) from None

    def rank(self, action: str) -> int:
        try:
            return self._ranks[action]
        except KeyError:
            raise UnknownActionError(
                f"decision {self.decision_id!r}: unknown action {action!r}"
            ) from None


def argmax_action(entries: dict[str, float]) -> str:
    """Highest-valued action id, ties broken by canonical action order."""
    if not entries:
        raise ValidationError("empty value table")
    return min(entries, key=lambda a: (-entries[a], canonical_key(a)))
