"""Report tables and figures built from a bundle.

Every table reads two small structures instead of the predictions: the
bundle's vote counts, (treatment, decision) -> {action: votes}, and the
score table of :func:`predscore.metrics.score_table`, decision -> action ->
(LV, LR, grade).  Mean LV and LR per treatment per decision, grade counts,
modified overlap and vote matrices are sums over the counts.  The
per-participant loss sums pick each listed treatment's totals from
:func:`predscore.metrics.participant_totals`, which reads the totals that
the parse cache (:mod:`predscore.parsecache`) attached to the bundle's
:class:`predscore.metrics.Predictions` where they were summed from the
score table given and are finite in the spaces asked for, and otherwise
walks the columns and refuses a total that overflows.
The rows of samples.csv always walk them, in the order of
:func:`predscore.metrics.by_participant_and_decision`, and
:func:`render_samples_csv` streams them itself, in one path: it renders
each distinct cell once and each row as three lookups.
Everything renders to CSV, markdown or SVG deterministically so outputs
are golden-file friendly.  CSV is quoted as the bundle files are, by
:func:`predscore.dataset.csv_text`, which samples.csv matches line for
line; markdown escapes the pipes and line breaks in ids, and SVG the
markup characters in labels.
"""

from __future__ import annotations

import csv
import math
import re
from collections import namedtuple
from itertools import chain, repeat

from .actions import SquareId, column_label
from .dataset import MNK, ExperimentBundle, csv_text
from .errors import ValidationError
from .metrics import (DEFAULT_GRADE_SCALE, SPACES, GradeScale, Predictions, ScoreTable, VoteCounts,
                      by_participant_and_decision, participant_totals, vote_tally, weighted_mean)
from .rankoverlap import DEFAULT_PERSISTENCE, mrbo_table
from .stats import SampleGroup

SAMPLES_HEADER = ["participant_id", "treatment", "decision_id", "predicted", "lv", "lr", "grade"]


class MetricsTable(namedtuple("MetricsTable", "decision_ids columns rows lower_is_better")):
    """Per-treatment summary: mean LV and LR (pooled and per decision) and
    the modified overlap per decision.  rows are (treatment, cells) pairs
    with one cell per column; lower_is_better has one flag per column."""

    __slots__ = ()

    def best_in_column(self) -> tuple[tuple[str, ...], ...]:
        """For each row, the column names where that row holds the best value."""
        best: list[set[str]] = [set() for _ in self.rows]
        for j, col in enumerate(self.columns):
            cells = [cells[j] for _, cells in self.rows]
            target = min(cells) if self.lower_is_better[j] else max(cells)
            for i, value in enumerate(cells):
                if value == target:
                    best[i].add(col)
        return tuple(tuple(sorted(s)) for s in best)


def _scored_votes(scores: ScoreTable, decision_id: str, votes: dict[str, int]) -> list[tuple]:
    """((LV, LR, grade), votes) for each action of one decision's counts;
    an action that the decision's score table does not hold is refused."""
    table = scores[decision_id]
    for action in votes:
        if action not in table:
            raise ValidationError(f"decision {decision_id!r} has no action {action!r}")
    return [(table[action], n) for action, n in votes.items()]


def build_metrics_table(
    bundle: ExperimentBundle, counts: VoteCounts, scores: ScoreTable, p: float = DEFAULT_PERSISTENCE
) -> MetricsTable:
    if not bundle.predictions:
        raise ValidationError("bundle has no predictions to summarize")
    decision_ids = tuple(dv.decision_id for dv in bundle.decisions)
    overlap = mrbo_table(counts, bundle.values_by_decision(), p)

    columns = tuple(
        [f"mean_{m}_{d}" for m in ("lv", "lr") for d in ("all", *decision_ids)]
        + [f"mrbo_{d}" for d in decision_ids]
    )
    lower = (True,) * (2 + 2 * len(decision_ids)) + (False,) * len(decision_ids)
    rows = []
    # every (treatment, decision) cell is filled: mrbo_table rejects an empty one
    for treatment in sorted({t for t, _ in counts}):
        scored = [_scored_votes(scores, d, counts[(treatment, d)]) for d in decision_ids]
        cells = []
        for field in (0, 1):  # LV, then LR: (loss, votes) pairs per decision
            pairs = [[(fields[field], n) for fields, n in cell] for cell in scored]
            cells += [weighted_mean(chain.from_iterable(pairs)), *map(weighted_mean, pairs)]
        rows.append((treatment, tuple(cells + [overlap[(treatment, d)] for d in decision_ids])))
    return MetricsTable(decision_ids, columns, tuple(rows), lower)


def render_metrics_csv(table: MetricsTable) -> str:
    rows = [(treatment, *cells, ";".join(best))
            for (treatment, cells), best in zip(table.rows, table.best_in_column())]
    return csv_text(["treatment", *table.columns, "best_in"], rows)


def _markdown_cell(text: str) -> str:
    """text as one markdown table cell: a pipe is escaped, a line break is <br>."""
    return re.sub(r"\r\n?|\n", "<br>", text.replace("|", "\\|"))


def render_metrics_markdown(table: MetricsTable) -> str:
    header = "| treatment | " + " | ".join(map(_markdown_cell, table.columns)) + " |"
    rule = "|" + " --- |" * (len(table.columns) + 1)
    lines = [header, rule]
    best = table.best_in_column()
    for (treatment, cells), best_cols in zip(table.rows, best):
        rendered = []
        for col, cell in zip(table.columns, cells):
            text = f"{cell:.3f}"
            rendered.append(f"**{text}**" if col in best_cols else text)
        lines.append("| " + _markdown_cell(treatment) + " | " + " | ".join(rendered) + " |")
    return "\n".join(lines) + "\n"


def grade_distribution(
    bundle: ExperimentBundle,
    counts: VoteCounts,
    scores: ScoreTable,
    scale: GradeScale = DEFAULT_GRADE_SCALE,
) -> dict[str, dict[str, dict[str, int]]]:
    """decision -> treatment -> grade label -> count, for scores graded on
    scale; a score whose grade is not on scale is refused, and so are
    counts for a decision with no value table, for an action that the
    decision's score table does not hold, or for a treatment that the
    bundle does not list."""
    out = {dv.decision_id: {t: dict.fromkeys(scale.labels, 0) for t in sorted(bundle.treatments)}
           for dv in bundle.decisions}
    for (treatment, decision_id), votes in counts.items():
        if decision_id not in out:
            raise ValidationError(f"unknown decision {decision_id!r}")
        if treatment not in out[decision_id]:
            raise ValidationError(f"treatment {treatment!r} is not listed")
        grades = out[decision_id][treatment]
        for (_, _, grade), count in _scored_votes(scores, decision_id, votes):
            if grade not in grades:
                raise ValidationError(f"decision {decision_id!r}: grade {grade!r} is off the scale")
            grades[grade] += count
    return out


def render_grade_distribution_csv(distribution) -> str:
    """One row per decision and treatment of a grade_distribution.  Its
    grade columns are the labels of the distribution's count maps, in their
    order, so a distribution with no row renders the bare header."""
    labels = next((list(counts) for per_treatment in distribution.values()
                   for counts in per_treatment.values()), [])
    rows = [(decision_id, treatment, *(counts[label] for label in labels))
            for decision_id, per_treatment in distribution.items()
            for treatment, counts in per_treatment.items()]
    return csv_text(["decision_id", "treatment", *labels], rows)


def participant_loss_sums(
    bundle: ExperimentBundle, scores: ScoreTable, spaces=SPACES
) -> dict[str, list[SampleGroup]]:
    """For each of spaces, one group per listed treatment, in sorted order,
    of each participant's summed loss across decisions: value space sums
    LV, rank space sums LR.  Each group picks its treatment's totals for
    the space from :func:`predscore.metrics.participant_totals`, and a
    listed treatment that no prediction names gets an empty group.

    Each treatment lists its participants in sorted order, and each total
    adds its losses in decision order, whatever the order of the
    predictions.  A total that overflows is refused with the participant,
    the treatment and the space, in the spaces asked for only.
    """
    totals = participant_totals(bundle.predictions, scores, spaces)
    return {space: [SampleGroup(t, totals.get(t, ((), ()))[SPACES.index(space)])
                    for t in sorted(bundle.treatments)]
            for space in spaces}


class _Lines(list):
    """A list for a csv writer to write to: each row it writes is one item."""

    __slots__ = ()
    write = list.append


def render_samples_csv(predictions: Predictions, scores: ScoreTable):
    """The lines of samples.csv, the header line first: each prediction
    with its (LV, LR, grade), in the order of
    :func:`predscore.metrics.by_participant_and_decision`, as
    ``csv_text(SAMPLES_HEADER, rows)`` writes them.

    No csv writer call and no row tuple is made per row.  One writer pass
    renders the header, each distinct participant id and treatment, and
    the (decision, action, LV, LR, grade) tail of each pair that the
    predictions name, as :func:`predscore.metrics.vote_tally` counts them;
    each line is then three lookups.  Those cells hold the fields of
    csv_text's text and nothing else, so they are rendered again with every
    field quoted exactly when csv_text would quote them: when one holds a
    "\r".
    """
    ids, labels, decisions, actions = predictions.columns
    order = by_participant_and_decision(predictions)  # a sort after the rendering peaks higher
    leading = list(set(ids).union(labels))
    named = {(d, a) for _, d, a in vote_tally(predictions)}
    scored = {d: {a: f for a, f in table.items() if (d, a) in named} for d, table in scores.items()}
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        lines = _Lines()
        csv.writer(lines, lineterminator="\n", quoting=quoting).writerows(chain(
            # a second, empty field keeps an empty one from being written as a lone '""'
            (SAMPLES_HEADER,), zip(leading, repeat("")),
            ((d, a, *fields) for d, table in scored.items() for a, fields in table.items())))
        if not any(map(str.__contains__, lines, repeat("\r"))):
            break
    lines.reverse()  # each line is popped, and so released, as its cell is taken
    head = lines.pop()
    cells = {field: lines.pop().rpartition(",")[0] for field in leading}
    tails = {d: {a: lines.pop() for a in table} for d, table in scored.items()}
    return chain((head,), (f"{cells[ids[i]]},{cells[labels[i]]},{tails[decisions[i]][actions[i]]}"
                           for i in order))


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with linear interpolation quartiles.

    The quartiles repeat numpy.percentile's default method operation for
    operation, so they match it bit for bit: index (n-1)*q with fraction t,
    then b - (b-a)*(1-t) when t >= 0.5, else a + (b-a)*t.  Where a and b
    lie further apart than the float range, so that b - a overflows, the
    quartile is a*(1-t) + b*t, which stays finite and between them.  An
    empty sample is refused, and the values are checked and converted by
    SampleGroup, as the group 'sample', which reads them with
    :func:`predscore.errors.finite_floats`: a value that is not a number,
    is not finite or is an int too large for a float is refused.
    """
    return _five_numbers(sorted(SampleGroup("sample", values).values))


def _five_numbers(ordered: list[float]) -> tuple[float, float, float, float, float]:
    """five_number_summary of sorted floats that a SampleGroup has checked."""
    if not ordered:
        raise ValidationError("empty sample")
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        idx = (len(ordered) - 1) * q
        lo = math.floor(idx)
        t = idx - lo
        a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
        if math.isinf(b - a):
            quartiles.append(a * (1 - t) + b * t)
        else:
            quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return (ordered[0], *quartiles, ordered[-1])


def boxplot_rows(groups: list[SampleGroup]) -> list[tuple]:
    """One (treatment, n, min, q1, median, q3, max) row per group: the
    five-number summaries that both boxplot renderings draw.  Each group's
    values were checked when it was built, so they are not checked again."""
    return [(g.label, len(g.values), *_five_numbers(sorted(g.values))) for g in groups]


def render_boxplot_csv(rows: list[tuple]) -> str:
    """The boxplot_rows table as CSV."""
    return csv_text(["treatment", "n", "min", "q1", "median", "q3", "max"], rows)


def vote_matrix(
    bundle: ExperimentBundle, counts: VoteCounts, decision_id: str, treatment: str | None = None
) -> list[list[int]]:
    """n-row by m-column grid of one decision's vote counts (row 1 first).

    treatment None pools every group.  A decision with no value table is
    refused, a pending one as pending, and so is a treatment that the
    bundle does not list.
    """
    if bundle.manifest.domain != MNK:
        raise ValidationError(f"vote matrices need an mnk bundle, not {bundle.manifest.domain!r}")
    if decision_id not in bundle.values_by_decision():
        raise ValidationError(f"decision {decision_id!r} is pending: it has no value table"
                              if decision_id in dict(bundle.pending_decisions)
                              else f"unknown decision {decision_id!r}")
    if treatment is not None and treatment not in bundle.treatments:
        raise ValidationError(f"treatment {treatment!r} is not listed")
    cfg = bundle.manifest.board
    grid = [[0] * cfg.m for _ in range(cfg.n)]
    for (t, d), votes in counts.items():
        if d == decision_id and (treatment is None or t == treatment):
            for sq, count in zip(map(SquareId.parse, votes), votes.values()):
                grid[sq.row][sq.col] += count
    return grid


def render_vote_matrix_csv(grid: list[list[int]]) -> str:
    rows = [(r + 1, *row) for r, row in enumerate(grid)]
    return csv_text(["row", *map(column_label, range(len(grid[0]) if grid else 0))], rows)


# Fixed monotone blue ramp, light to dark, for vote heat maps.
BLUE_RAMP = (
    "#f7fbff",
    "#deebf7",
    "#c6dbef",
    "#9ecae1",
    "#6baed6",
    "#4292c6",
    "#2171b5",
    "#08519c",
    "#08306b",
)

_CELL = 40


def _ramp_color(count: int, peak: int) -> str:
    if count <= 0 or peak <= 0:
        return BLUE_RAMP[0]
    step = min(len(BLUE_RAMP) - 1, 1 + (count - 1) * (len(BLUE_RAMP) - 1) // peak)
    return BLUE_RAMP[step]


def render_vote_svg(grid: list[list[int]], chosen: SquareId | None = None) -> str:
    """Heat map of a vote matrix; the chosen square gets a red outline."""
    n = len(grid)
    m = len(grid[0]) if n else 0
    peak = max((v for row in grid for v in row), default=0)
    width, height = m * _CELL, n * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for r in range(n):
        for c in range(m):
            count = grid[r][c]
            x, y = c * _CELL, (n - 1 - r) * _CELL  # row 1 drawn at the bottom
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_ramp_color(count, peak)}" stroke="#999999"/>'
            )
            if count:
                parts.append(
                    f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" '
                    f'text-anchor="middle" font-size="14" font-family="sans-serif" '
                    f'fill="#333333">{count}</text>'
                )
    if chosen is not None:
        x, y = chosen.col * _CELL, (n - 1 - chosen.row) * _CELL
        parts.append(
            f'<rect x="{x + 1}" y="{y + 1}" width="{_CELL - 2}" height="{_CELL - 2}" '
            f'fill="none" stroke="#d62728" stroke-width="3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Code points XML 1.0 cannot hold: C0 controls other than tab, LF and CR,
# the surrogates, and U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str) -> str:
    """text escaped for an SVG text node, with U+FFFD for every code point
    XML 1.0 cannot hold."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML_CHAR.sub("\ufffd", text)


def render_boxplot_svg(rows: list[tuple]) -> str:
    """Minimal box-and-whisker chart of the boxplot_rows table, one box per
    treatment."""
    if not rows:
        raise ValidationError("no groups to plot")
    lo = min(row[2] for row in rows)
    hi = max(row[6] for row in rows)
    # values further apart than the float range are placed by their halves,
    # which are exact; any other plot multiplies by 1.0, which changes nothing
    scale = 0.5 if math.isinf(hi - lo) else 1.0
    top = hi * scale
    span = top - lo * scale or 1.0
    box_w, gap, chart_h, margin = 60, 30, 240, 30
    width = margin * 2 + len(rows) * (box_w + gap)
    height = chart_h + margin * 2 + 20

    def sy(v: float) -> float:
        return margin + (top - v * scale) / span * chart_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, (label, _, mn, q1, med, q3, mx) in enumerate(rows):
        x = margin + i * (box_w + gap)
        cx = x + box_w / 2
        parts.append(
            f'<line x1="{cx:.1f}" y1="{sy(mx):.1f}" x2="{cx:.1f}" y2="{sy(mn):.1f}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{sy(q3):.1f}" width="{box_w}" '
            f'height="{max(sy(q1) - sy(q3), 0.5):.1f}" fill="#9ecae1" stroke="#333333"/>'
        )
        parts.append(
            f'<line x1="{x:.1f}" y1="{sy(med):.1f}" x2="{x + box_w:.1f}" y2="{sy(med):.1f}" '
            f'stroke="#08306b" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{chart_h + margin + 16:.1f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{_xml_text(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
