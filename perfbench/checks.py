"""Output checks for the benchmark, by independent recomputation.

Nothing here imports predscore: bundles and reports are read with the csv
and json modules, and scores are recomputed from values.csv with the
documented rules (rank by descending value, ties by column then row; LV =
V(chosen) - V(predicted); LR = R(predicted) - R(chosen); grade A-F in bins
of four ranks).  Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

GRADE_LETTERS = "ABCD"  # ranks 1-4, 5-8, 9-12, 13-16; F beyond
SQUARE = re.compile(r"([A-Z]+)([1-9][0-9]*)$")


def _square_key(action: str):
    match = SQUARE.match(action)
    if not match:
        return (1, 0, 0, action)
    col = 0
    for ch in match.group(1):
        col = col * 26 + ord(ch) - ord("A") + 1
    return (0, col, int(match.group(2)), action)


def slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text)


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.reader(fh)


class Values:
    """values.csv: per decision the value table, the chosen action and ranks."""

    def __init__(self, path: Path):
        self.values: dict[str, dict[str, float]] = {}
        self.chosen: dict[str, list[str]] = {}
        rows = _rows(path)
        header = next(rows)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            decision, action = row[col["decision_id"]], row[col["action"]]
            self.values.setdefault(decision, {})[action] = float(row[col["value"]])
            if row[col["chosen"]] == "1":
                self.chosen.setdefault(decision, []).append(action)
        self.ranks = {
            d: {a: i + 1 for i, a in enumerate(sorted(t, key=lambda a: (-t[a], _square_key(a))))}
            for d, t in self.values.items()
        }

    def expected(self, decision: str, predicted: str) -> tuple[float, int, str]:
        """(lv, lr, grade) of one prediction."""
        table, ranks = self.values[decision], self.ranks[decision]
        chosen = self.chosen[decision][0]
        rank = ranks[predicted]
        grade = GRADE_LETTERS[(rank - 1) // 4] if rank <= 16 else "F"
        return table[chosen] - table[predicted], rank - ranks[chosen], grade


def check_bundle(bundle: Path, participants: int, decisions: int) -> list[str]:
    """The bundle re-reads and holds participants x decisions predictions."""
    problems = []
    try:
        json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
        values = Values(bundle / "values.csv")
        rows = _rows(bundle / "predictions.csv")
        next(rows)
        predictions = sum(1 for row in rows if row)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"bundle does not re-read: {exc!r}"]
    if len(values.values) != decisions:
        problems.append(f"{len(values.values)} decisions, expected {decisions}")
    bad = [d for d in values.values if len(values.chosen.get(d, [])) != 1]
    if bad:
        problems.append(f"decisions without exactly one chosen action: {bad}")
    if predictions != participants * decisions:
        problems.append(f"{predictions} predictions, expected {participants} x {decisions}")
    return problems


def check_grade(report: Path, bundle: Path, expected_rows: int, rng: random.Random,
                sample: int = 1000) -> list[str]:
    """samples.csv has one row per prediction, in (participant, decision)
    order, and a seeded sample of at least ``sample`` rows (all rows when
    there are fewer) carries the recomputed LV, LR and grade."""
    try:
        values = Values(bundle / "values.csv")
        picks = set(rng.sample(range(expected_rows), min(sample, expected_rows)))
        rows = _rows(report / "samples.csv")
        header = next(rows)
        if header != ["participant_id", "treatment", "decision_id", "predicted", "lv", "lr", "grade"]:
            return [f"samples.csv header {header}"]
        problems = []
        picked = {}
        count = 0
        last = None
        for row in rows:
            key = (row[0], row[2])
            if last is not None and key <= last:
                problems.append(f"samples.csv row {count + 2}: {key} not after {last}")
                break
            last = key
            if count in picks:
                picked[key] = row
            count += 1
        if count != expected_rows:
            problems.append(f"samples.csv has {count} rows, expected {expected_rows}")
        for pid, treatment, decision, predicted in _prediction_rows(bundle):
            row = picked.pop((pid, decision), None)
            if row is None:
                continue
            if row[1] != treatment or row[3] != predicted:
                problems.append(f"samples.csv row for {pid}/{decision} is not the bundle's: {row}")
                continue
            lv, lr, grade = values.expected(decision, predicted)
            if float(row[4]) != lv or int(row[5]) != lr or row[6] != grade:
                problems.append(f"{pid}/{decision}: got {row[4:]}, expected {[lv, lr, grade]}")
        if picked:
            problems.append(f"{len(picked)} sampled samples.csv rows are not in the bundle")
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"samples.csv unreadable: {exc!r}"]
    return problems


def _prediction_rows(bundle: Path):
    rows = _rows(bundle / "predictions.csv")
    next(rows)
    for row in rows:
        if row:
            yield row


def check_metrics(report: Path, bundle: Path) -> list[str]:
    """mean_lr_all per treatment equals the mean LR recomputed from the bundle."""
    try:
        values = Values(bundle / "values.csv")
        lrs: dict[str, list[int]] = {}
        for _, treatment, decision, predicted in _prediction_rows(bundle):
            lrs.setdefault(treatment, []).append(values.expected(decision, predicted)[1])
        rows = _rows(report / "metrics.csv")
        header = next(rows)
        col = header.index("mean_lr_all")
        reported = {row[0]: float(row[col]) for row in rows}
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"metrics.csv or bundle unreadable: {exc!r}"]
    if set(reported) != set(lrs):
        return [f"metrics.csv treatments {sorted(reported)} != bundle {sorted(lrs)}"]
    problems = []
    for treatment, group in lrs.items():
        mean = math.fsum(group) / len(group)
        if abs(reported[treatment] - mean) > 1e-9:
            problems.append(f"mean_lr_all[{treatment}] = {reported[treatment]}, bundle gives {mean}")
    return problems


def check_votes(report: Path, bundle: Path, decision: str) -> list[str]:
    """Each treatment's vote grid totals its count of predictions for decision."""
    counts: dict[str, int] = {}
    try:
        for _, treatment, did, _ in _prediction_rows(bundle):
            if did == decision:
                counts[treatment] = counts.get(treatment, 0) + 1
        problems = []
        for treatment, expected in sorted(counts.items()):
            rows = _rows(report / f"votes_{slug(decision)}_{slug(treatment)}.csv")
            next(rows)
            total = sum(int(v) for row in rows for v in row[1:])
            if total != expected:
                problems.append(f"votes for {treatment}: grid totals {total}, expected {expected}")
    except (OSError, ValueError, StopIteration) as exc:
        return [f"vote grid unreadable: {exc!r}"]
    return problems


def check_stats(path: Path) -> list[str]:
    """The stats JSON parses, p-values lie in [0, 1], and ANOVA is chosen
    exactly when every gate passes."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        alpha = doc["alpha"]
        gate_ps = [g["p_value"] for g in doc["gates"]]
        p_values = gate_ps + [doc["comparison"]["p_value"]]
        test_used = doc["test_used"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name} unreadable: {exc!r}"]
    problems = [f"{path.name}: p-value {p} outside [0, 1]"
                for p in p_values if not isinstance(p, (int, float)) or not 0 <= p <= 1]
    if problems:
        return problems
    expected = "anova" if all(p >= alpha for p in gate_ps) else "kruskal_wallis"
    if test_used != expected:
        problems.append(f"{path.name}: test_used {test_used!r}, gates imply {expected!r}")
    return problems
