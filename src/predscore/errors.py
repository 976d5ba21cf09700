"""Exception types shared across the package, the mixin that keeps a
validating value type's invariants on every construction path, and
:func:`finite_floats`, the one rule by which every value type reads its
numbers."""

import math


class PredscoreError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PredscoreError, ValueError):
    """A value or structure violates one of its invariants."""


class UnknownActionError(ValidationError):
    """An action id does not exist in the decision's action set."""


class ParseError(ValidationError):
    """Malformed input file.  Carries the row/column that failed."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column!r})" if column else ")")
        super().__init__(message + where)


class DegenerateDataError(PredscoreError, ValueError):
    """Sample data is degenerate for the requested statistic (e.g. zero variance)."""


class Validated:
    """Mixin, listed before the named-tuple base, for a value type whose
    ``__new__`` validates its fields.  A named tuple's ``_make``, and so its
    ``_replace``, build through ``tuple.__new__``; here they build through
    the type's own ``__new__``, so neither can make an invalid value."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def finite_floats(values, name: str, non_finite) -> tuple[float, ...]:
    """The numbers in ``values`` as a tuple of floats.

    A number is anything ``math.isfinite`` reads: a float, an int a float
    can hold, a bool (1.0 or 0.0), a Fraction or a Decimal.  Three kinds of
    value are refused with a ValidationError: a value that is not a number
    and an int too large for a float, in messages that begin with ``name``,
    and a value that is not finite, with the message ``non_finite(value)``,
    so that each type keeps its own wording for it.  The check and the
    conversion each run once over the values, at C speed.
    """
    values = tuple(values)  # read twice below, so an iterator is read into a tuple first
    try:
        if all(map(math.isfinite, values)):
            return tuple(map(float, values))
    except OverflowError:
        raise ValidationError(f"{name} holds an int too large for a float") from None
    except (TypeError, ValueError):  # a ValueError is a Decimal signaling NaN
        raise ValidationError(f"{name} holds a value that is not a number") from None
    raise ValidationError(non_finite(next(v for v in values if not math.isfinite(v))))
