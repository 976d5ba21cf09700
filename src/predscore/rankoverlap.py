"""Rank-biased overlap between the agent's preference list and a group's
vote-derived list.

The classic extrapolated overlap divides every depth-d agreement by d,
which punishes short lists: a group whose only vote went to the agent's
top action scores far below 1 against the agent's full ordering.  The
modified form caps each denominator at the shorter list's length, so any
list that is a prefix of the other scores exactly 1.  Both are one
recurrence, _extrapolated, that divides each depth-d agreement by
min(cap, d): the classic form with cap = k, the modified form with cap =
the shorter list's length and k = the longer's.

Both lists are ordered by :func:`predscore.values.ranked`: the agent's by
value, a group's by votes, ties in canonical action order.
"""

from __future__ import annotations

from .errors import ValidationError
from .values import DecisionValues, ranked

DEFAULT_PERSISTENCE = 0.9


def agent_ranklist(values: DecisionValues) -> tuple[str, ...]:
    """The agent's full preference list: actions by descending value."""
    return values.actions


def vote_ranklist(votes: dict[str, int]) -> tuple[str, ...]:
    """Group preference list from a vote count (action -> votes), most
    votes first.

    Actions nobody voted for are dropped; equal nonzero counts are ordered
    canonically.
    """
    voted = {action: count for action, count in votes.items() if count > 0}
    if not voted:
        raise ValidationError("empty prediction group")
    return ranked(voted)


def _check_lists(s, t, p):
    if not s or not t:
        raise ValidationError("rank lists must be non-empty")
    if len(set(s)) != len(s) or len(set(t)) != len(t):
        raise ValidationError("rank lists must not contain duplicates")
    if not 0 < p < 1:
        raise ValidationError(f"persistence p must be in (0, 1), got {p}")


def _extrapolated(s, t, p: float, k: int, cap: int) -> float:
    """Extrapolated overlap to depth k, dividing each depth-d agreement
    |S_:d intersect T_:d| by min(cap, d) and weighting it by p^d.

    The weights sum to 1, so when every depth agrees fully the overlap is
    exactly 1.0; it is returned as such rather than as a rounded sum.
    """
    seen_s: set = set()
    seen_t: set = set()
    overlap = 0
    tail = 0.0
    weight = 1.0
    full = True
    for d in range(1, k + 1):
        if d <= len(s):
            x = s[d - 1]
            if x in seen_t:
                overlap += 1
            seen_s.add(x)
        if d <= len(t):
            x = t[d - 1]
            if x in seen_s:
                overlap += 1
            seen_t.add(x)
        weight *= p
        full &= overlap == min(cap, d)
        tail += overlap / min(cap, d) * weight
    if full:
        return 1.0
    # after the loop: overlap == |S_:k intersect T_:k| and weight == p^k
    return overlap / min(cap, k) * weight + (1 - p) / p * tail


def rbo_ext(s, t, p: float, k: int) -> float:
    """Extrapolated rank-biased overlap at evaluation depth k.

    1.0 for identical lists of length k, 0.0 for disjoint lists; the
    depth-d agreement is |S_:d intersect T_:d| / d, weighted by p^d.
    """
    _check_lists(s, t, p)
    if k < 1:
        raise ValidationError(f"evaluation depth k must be >= 1, got {k}")
    return _extrapolated(s, t, p, k, k)


def mrbo_ext(s, t, p: float = DEFAULT_PERSISTENCE) -> float:
    """Modified overlap: denominators stop growing at the shorter list.

    Evaluated to depth k = len of the longer list; argument order does not
    matter.  Equals rbo_ext when both lists have length k, and equals 1.0
    exactly iff one list is a prefix of the other.
    """
    _check_lists(s, t, p)
    short, long = (s, t) if len(s) <= len(t) else (t, s)
    return _extrapolated(short, long, p, len(long), len(short))


def mrbo_table(
    counts: dict[tuple[str, str], dict[str, int]],
    value_tables: dict[str, DecisionValues],
    p: float = DEFAULT_PERSISTENCE,
) -> dict[tuple[str, str], float]:
    """Modified overlap per (treatment, decision): the vote list of the
    cell's count (action -> votes) against the agent's full preference list.

    Every treatment in counts needs a nonempty cell for every decision.
    Iterates treatments in sorted order and decisions in value_tables
    order, so the resulting dict has a deterministic layout.
    """
    table = {}
    for treatment in sorted({t for t, _ in counts}):
        for decision_id, values in value_tables.items():
            votes = counts.get((treatment, decision_id))
            if not votes:
                raise ValidationError(
                    f"treatment {treatment!r} has no predictions for decision {decision_id!r}"
                )
            table[(treatment, decision_id)] = mrbo_ext(
                vote_ranklist(votes), agent_ranklist(values), p
            )
    return table
