"""Report tables and figures built from a bundle.

Every table reads two small structures instead of the predictions: the
bundle's vote counts, (treatment, decision) -> {action: votes}, and the
score table of :func:`predscore.metrics.score_table`, decision -> action ->
(LV, LR, grade).  Mean LV and LR per treatment per decision, grade counts,
modified overlap and vote matrices are sums over the counts; only the
per-participant loss sums and the rows of samples.csv walk the predictions'
columns, by participant and then decision
(metrics._by_participant_and_decision), looking each score up.  No record is
built for either.  Everything renders to CSV, markdown or SVG deterministically
so outputs are golden-file friendly.  CSV is quoted as the bundle files are,
by :func:`predscore.dataset._csv_text`; markdown escapes the pipes and line
breaks in ids, and SVG the markup characters in labels.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from itertools import chain

from .actions import SquareId, column_label
from .dataset import MNK, ExperimentBundle, _csv_lines, _csv_text
from .errors import ValidationError
from .metrics import (DEFAULT_GRADE_SCALE, GradeScale, Predictions, ScoreTable, VoteCounts,
                      _by_participant_and_decision, weighted_mean)
from .rankoverlap import DEFAULT_PERSISTENCE, mrbo_table
from .stats import SampleGroup

SPACES = ("value", "rank")  # the order of each participant's (LV, LR) totals
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
        cells = []
        for field in (0, 1):  # LV, then LR: (loss, votes) pairs per decision
            pairs = [[(scores[d][a][field], n) for a, n in counts[(treatment, d)].items()]
                     for d in decision_ids]
            cells += [weighted_mean(chain.from_iterable(pairs)), *map(weighted_mean, pairs)]
        rows.append((treatment, tuple(cells + [overlap[(treatment, d)] for d in decision_ids])))
    return MetricsTable(decision_ids, columns, tuple(rows), lower)


def render_metrics_csv(table: MetricsTable) -> str:
    rows = [(treatment, *cells, ";".join(best))
            for (treatment, cells), best in zip(table.rows, table.best_in_column())]
    return _csv_text(["treatment", *table.columns, "best_in"], rows)


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
    scale."""
    out = {dv.decision_id: {t: dict.fromkeys(scale.labels, 0) for t in sorted(bundle.treatments)}
           for dv in bundle.decisions}
    for (treatment, decision_id), votes in counts.items():
        grades, table = out[decision_id][treatment], scores[decision_id]
        for action, count in votes.items():
            grades[table[action][2]] += count
    return out


def render_grade_distribution_csv(distribution, scale: GradeScale = DEFAULT_GRADE_SCALE) -> str:
    rows = [(decision_id, treatment, *(counts[label] for label in scale.labels))
            for decision_id, per_treatment in distribution.items()
            for treatment, counts in per_treatment.items()]
    return _csv_text(["decision_id", "treatment", *scale.labels], rows)


def participant_loss_sums(
    bundle: ExperimentBundle, scores: ScoreTable, spaces=SPACES
) -> dict[str, list[SampleGroup]]:
    """For each of spaces, one group per listed treatment, in sorted order,
    of each participant's summed loss across decisions: value space sums
    LV, rank space sums LR.  A listed treatment that no prediction names
    gets an empty group.

    Each space is one walk over the predictions' columns, by participant
    and then decision, so each treatment lists its participants in sorted
    order.  Each total starts from 0.0 and adds its losses in decision
    order, whatever the order of the predictions, so equal bundles give
    equal float sums.  A total that overflows is refused with the
    participant, the treatment and the space; only the spaces asked for are
    summed, so it refuses only those.
    """
    participant_ids, treatments, decision_ids, predicted = bundle.predictions.columns
    order = _by_participant_and_decision(bundle.predictions)
    groups = {}
    for space in spaces:
        field = SPACES.index(space)
        losses = {d: {a: row[field] for a, row in table.items()} for d, table in scores.items()}
        sums = {t: {} for t in sorted(bundle.treatments)}
        for i in order:
            totals, pid = sums[treatments[i]], participant_ids[i]
            totals[pid] = totals.get(pid, 0.0) + losses[decision_ids[i]][predicted[i]]
        for t, totals in sums.items():
            for pid, total in totals.items():
                if not math.isfinite(total):
                    raise ValidationError(f"the {space}-space loss sum of participant {pid!r} "
                                          f"in treatment {t!r} overflows")
        groups[space] = [SampleGroup(label=t, values=tuple(totals.values()))
                         for t, totals in sums.items()]
    return groups


def render_samples_csv(predictions, scores: ScoreTable):
    """The lines of samples.csv: each prediction, of a Predictions or an
    iterable of records, with its (LV, LR, grade)."""
    predictions = Predictions.of(predictions)
    return _csv_lines(SAMPLES_HEADER, predictions.columns,
                      _by_participant_and_decision(predictions), scores)


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with linear interpolation quartiles.

    The quartiles repeat numpy.percentile's default method operation for
    operation, so they match it bit for bit: index (n-1)*q with fraction t,
    then b - (b-a)*(1-t) when t >= 0.5, else a + (b-a)*t.
    """
    if not values:
        raise ValidationError("empty sample")
    ordered = [float(v) for v in sorted(values)]
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        idx = (len(ordered) - 1) * q
        lo = math.floor(idx)
        t = idx - lo
        a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return (ordered[0], *quartiles, ordered[-1])


def render_boxplot_csv(groups: list[SampleGroup]) -> str:
    rows = [(g.label, len(g.values), *five_number_summary(g.values)) for g in groups]
    return _csv_text(["treatment", "n", "min", "q1", "median", "q3", "max"], rows)


def vote_matrix(
    bundle: ExperimentBundle, counts: VoteCounts, decision_id: str, treatment: str | None = None
) -> list[list[int]]:
    """n-row by m-column grid of one decision's vote counts (row 1 first).

    treatment None pools every group.
    """
    if bundle.manifest.domain != MNK:
        raise ValidationError(f"vote matrices need an mnk bundle, not {bundle.manifest.domain!r}")
    if decision_id not in bundle.values_by_decision():
        raise ValidationError(f"unknown decision {decision_id!r}")
    cfg = bundle.manifest.board
    grid = [[0] * cfg.m for _ in range(cfg.n)]
    for (t, d), votes in counts.items():
        if d == decision_id and (treatment is None or t == treatment):
            for sq, count in zip(map(SquareId.parse, votes), votes.values()):
                grid[sq.row][sq.col] += count
    return grid


def render_vote_matrix_csv(grid: list[list[int]], m: int) -> str:
    rows = [(r + 1, *row) for r, row in enumerate(grid)]
    return _csv_text(["row", *map(column_label, range(m))], rows)


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


def render_boxplot_svg(groups: list[SampleGroup]) -> str:
    """Minimal box-and-whisker chart, one box per treatment."""
    if not groups:
        raise ValidationError("no groups to plot")
    summaries = [five_number_summary(g.values) for g in groups]
    lo = min(s[0] for s in summaries)
    hi = max(s[4] for s in summaries)
    span = hi - lo or 1.0
    box_w, gap, chart_h, margin = 60, 30, 240, 30
    width = margin * 2 + len(groups) * (box_w + gap)
    height = chart_h + margin * 2 + 20

    def sy(v: float) -> float:
        return margin + (hi - v) / span * chart_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, (g, (mn, q1, med, q3, mx)) in enumerate(zip(groups, summaries)):
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
            f'font-size="12" font-family="sans-serif">{_xml_text(g.label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
