"""Per-decision value tables and the rank order they induce.

A :class:`DecisionValues` holds the agent's scalar value for every action
available at one decision plus the action the agent actually took.  Ranks
are always 1-based, assigned in descending value order with ties broken by
canonical action order, so every action set has ranks 1..|A| with no gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .actions import canonical_key
from .errors import UnknownActionError, ValidationError

TRIPLE_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OutcomeTriple:
    """(win, loss, draw) probability estimates for one action."""

    win: float
    loss: float
    draw: float

    def __post_init__(self):
        for name in ("win", "loss", "draw"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -TRIPLE_SUM_TOLERANCE or v > 1 + TRIPLE_SUM_TOLERANCE:
                raise ValidationError(f"{name} fraction out of [0, 1]: {v!r}")
        total = self.win + self.loss + self.draw
        if abs(total - 1.0) > TRIPLE_SUM_TOLERANCE:
            raise ValidationError(f"outcome fractions must sum to 1, got {total!r}")


@dataclass(frozen=True)
class DecisionValues:
    """The agent's value table for one decision.

    entries maps action id -> scalar value; chosen is the action the agent
    took; outcomes optionally carries the raw (win, loss, draw) triples the
    scalars were flattened from.
    """

    decision_id: str
    entries: dict[str, float]
    chosen: str
    outcomes: dict[str, OutcomeTriple] | None = None
    _ordering: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _ranks: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValidationError(f"decision {self.decision_id!r} has an empty value table")
        object.__setattr__(self, "entries", dict(self.entries))
        if self.outcomes is not None:
            # normalize: an empty triple map is no triple map at all
            object.__setattr__(self, "outcomes", dict(self.outcomes) or None)
        for action, value in self.entries.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"decision {self.decision_id!r}: value for {action!r} is not finite"
                )
        if self.chosen not in self.entries:
            raise UnknownActionError(
                f"decision {self.decision_id!r}: chosen action {self.chosen!r} not in value table"
            )
        if self.outcomes is not None:
            unknown = set(self.outcomes) - set(self.entries)
            if unknown:
                raise UnknownActionError(
                    f"decision {self.decision_id!r}: outcome triples for unknown actions {sorted(unknown)}"
                )
        ordering = tuple(
            sorted(self.entries, key=lambda a: (-self.entries[a], canonical_key(a)))
        )
        object.__setattr__(self, "_ordering", ordering)
        object.__setattr__(self, "_ranks", {a: i + 1 for i, a in enumerate(ordering)})

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
