"""The one way tests build predictions: rows in, columns out."""

from predscore.metrics import Predictions


def predictions_of(rows) -> Predictions:
    """The Predictions holding rows, each (participant id, treatment,
    decision id, predicted action), in order; an empty one for no rows."""
    rows = list(rows)
    return Predictions(zip(*rows)) if rows else Predictions()
