"""Action identifiers and their canonical ordering.

Action ids are plain strings.  Board squares use the spreadsheet-like text
form ``<letters><digits>`` ("F2" is column 5, row 1, both 0-based); the
Four Towers domain uses the quadrant tags NE/NW/SE/SW; custom domains may
use any unique strings.

All tie-breaking in this package goes through :func:`canonical_key`:
square-shaped ids sort by (column, row) and come first, every other id
sorts by plain string comparison.  This keeps rank assignments and vote
orderings deterministic and reproducible across implementations.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import Validated, ValidationError

QUADRANTS = ("NE", "NW", "SE", "SW")

_SQUARE_RE = re.compile(r"^([A-Z]+)([0-9]+)$")


def column_label(col: int) -> str:
    """0 -> "A", 25 -> "Z", 26 -> "AA", ... (spreadsheet columns)."""
    if col < 0:
        raise ValidationError(f"column index must be >= 0, got {col}")
    label = ""
    col += 1
    while col:
        col, rem = divmod(col - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


def parse_column_label(text: str) -> int:
    col = 0
    for ch in text:
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col - 1


class SquareId(Validated, namedtuple("SquareId", "col row")):
    """A board square addressed by 0-based (col, row)."""

    __slots__ = ()

    def __new__(cls, col: int, row: int):
        if col < 0 or row < 0:
            raise ValidationError(f"square indices must be >= 0, got ({col}, {row})")
        return super().__new__(cls, col, row)

    @property
    def text(self) -> str:
        return f"{column_label(self.col)}{self.row + 1}"

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "SquareId":
        match = _SQUARE_RE.match(text.upper())
        if not match:
            raise ValidationError(f"not a square id: {text!r}")
        letters, digits = match.groups()
        row = int(digits)
        if row == 0:
            raise ValidationError(f"square rows are numbered from 1: {text!r}")
        return cls(parse_column_label(letters), row - 1)


def try_parse_square(action: str) -> SquareId | None:
    """Square id for strictly canonical text ("F2"), else None.

    NE/NW/SE/SW never match (no digits), so quadrant ids fall through to
    plain string ordering.
    """
    match = _SQUARE_RE.match(action)
    if not match:
        return None
    letters, digits = match.groups()
    if digits[0] == "0":
        return None
    return SquareId(parse_column_label(letters), int(digits) - 1)


def canonical_key(action: str):
    """Total-order sort key for action ids (see module docstring)."""
    sq = try_parse_square(action)
    if sq is not None:
        return (0, sq.col, sq.row, action)
    return (1, 0, 0, action)
