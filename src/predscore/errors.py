"""Exception types shared across the package, and the mixin that keeps a
validating value type's invariants on every construction path."""


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
