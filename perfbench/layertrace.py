"""Outside-in layer trace for one predscore CLI command.

Run as a script, this file executes one CLI command in its own process:

    python3 perfbench/layertrace.py --out spans.json --wrap 1 -- metrics --bundle b

It imports the package, optionally rebinds every public function named in
LAYERS to a timing wrapper, calls ``predscore.cli.main(argv)`` and writes
``{"main_s", "spans"}`` as JSON when the command ends.  Spans stay in
memory until then.  Nothing inside ``src/`` changes: the wrappers replace the
functions in every ``predscore.*`` namespace that imported them, so calls
made through those names are timed, and outputs stay byte-identical.

Imported as a module, it provides the arithmetic the benchmark applies to
the spans: self times and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# module -> public functions timed in that module
LAYERS = {
    "cli": ("main",),
    "board": ("game_status", "apply_move"),
    "oracle": ("value_oracle", "exact_outcome_triples", "sampled_outcome_triples"),
    "dataset": (
        "generate_synthetic_experiment",
        "write_bundle",
        "read_bundle",
        "parse_values_csv",
        "parse_predictions_csv",
    ),
    "metrics": ("score_dataset",),
    "rankoverlap": ("mrbo_table",),
    "report": (
        "build_metrics_table",
        "grade_distribution",
        "participant_loss_sums",
        "vote_matrix",
        "render_metrics_csv",
        "render_metrics_markdown",
        "render_grade_distribution_csv",
        "render_boxplot_csv",
        "render_boxplot_svg",
        "render_vote_matrix_csv",
        "render_vote_svg",
    ),
    "stats": ("run_pipeline", "shapiro_wilk", "levene_median", "anova_oneway", "kruskal_wallis"),
}


def _bundle_bytes(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())}


def _rollouts(args, kwargs, result):
    rollouts = kwargs["rollouts"] if "rollouts" in kwargs else args[1]
    return {"rollouts": rollouts * len(result)}


def _observations(args, kwargs):
    groups = args[0] if args else kwargs["groups"]
    return {"observations": sum(len(getattr(g, "values", g)) for g in groups)}


# span name -> counts taken from a call's arguments, before the call, so a
# call that raises is counted too
INPUT_COUNTERS = {
    "metrics.score_dataset": lambda a, k: {"predictions": len(a[0] if a else k["predictions"])},
    "stats.run_pipeline": _observations,
}

# span name -> counts taken from a call's arguments and result
RESULT_COUNTERS = {
    "oracle.exact_outcome_triples": lambda a, k, r: {"moves": len(r)},
    "oracle.sampled_outcome_triples": _rollouts,
    "dataset.write_bundle": _bundle_bytes,
    "dataset.read_bundle": lambda a, k, r: {"predictions": len(r.predictions)},
    "dataset.parse_predictions_csv": lambda a, k, r: {"rows": len(r)},
    "rankoverlap.mrbo_table": lambda a, k, r: {"cells": len(r)},
}


class Recorder:
    """Spans of one command, kept in memory: name, start, end, parent index."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count_input = INPUT_COUNTERS.get(name)
        count_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            if count_input is not None:
                span["counts"] = count_input(args, kwargs)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count_result is not None:
                span["counts"] = count_result(args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        """Rebind every LAYERS function in each predscore.* namespace that
        holds it."""
        wrappers = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"predscore.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "predscore" and not modname.startswith("predscore."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def self_time(span: dict, children: list[dict]) -> float:
    """Duration of span minus the part of it covered by its children."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], reach)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, summed self time, summed counts, and errors
    that left the span's layer (its parent is in another module)."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    totals: dict[str, dict] = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "errors": 0, "counts": {}})
        t["calls"] += 1
        t["self_s"] += self_time(span, children.get(i, []))
        for key, value in span.get("counts", {}).items():
            t["counts"][key] = t["counts"].get(key, 0) + value
        if span.get("error"):
            parent = span["parent"]
            layer = span["name"].split(".")[0]
            if parent is None or spans[parent]["name"].split(".")[0] != layer:
                t["errors"] += 1
    return totals


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(commands: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    Each command dict holds ``kind`` (the CLI subcommand), ``wall_s`` and
    ``main_s`` of its untraced run, ``traced_main_s`` and ``spans`` of its
    traced run.  Returns name -> (value, unit).
    """
    spans: list[dict] = []
    for c in commands:  # parent indices count within one command's spans
        base = len(spans)
        spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + base)
                  for s in c["spans"]]
    totals = layer_totals(spans)

    def get(name: str, field: str = "self_s") -> float:
        return totals.get(name, {}).get(field, 0)

    def count(name: str, key: str) -> float:
        return totals.get(name, {}).get("counts", {}).get(key, 0)

    def in_metrics(name: str) -> int:
        """Predictions counted at name during the metrics command."""
        return sum(s.get("counts", {}).get("predictions", 0)
                   for c in commands if c["kind"] == "metrics" for s in c["spans"] if s["name"] == name)

    scored, bundled = in_metrics("metrics.score_dataset"), in_metrics("dataset.read_bundle")
    sampled_s = get("oracle.sampled_outcome_triples")
    parse_s = get("dataset.parse_predictions_csv")
    stats_errors = sum(t["errors"] for n, t in totals.items() if n.startswith("stats."))
    main_s = sum(c["main_s"] for c in commands)
    walls = {f"cli.{kind}_s": (sum(c["wall_s"] for c in commands if c["kind"] == kind), "s")
             for kind in ("simulate", "metrics", "stats", "votes", "grade")}
    return {
        **walls,
        "cli.process_s": (sum(c["wall_s"] - c["main_s"] for c in commands), "s"),
        "cli.main.self_s": (get("cli.main"), "s"),
        "board.game_status.calls": (get("board.game_status", "calls"), "count"),
        "board.game_status.self_s": (get("board.game_status"), "s"),
        "board.apply_move.calls": (get("board.apply_move", "calls"), "count"),
        "oracle.value_oracle.calls": (get("oracle.value_oracle", "calls"), "count"),
        "oracle.value_oracle.self_s": (get("oracle.value_oracle"), "s"),
        "oracle.exact_outcome_triples.calls": (get("oracle.exact_outcome_triples", "calls"), "count"),
        "oracle.exact_outcome_triples.self_s": (get("oracle.exact_outcome_triples"), "s"),
        "oracle.exact.moves": (count("oracle.exact_outcome_triples", "moves"), "count"),
        "oracle.sampled_outcome_triples.calls": (get("oracle.sampled_outcome_triples", "calls"), "count"),
        "oracle.sampled_outcome_triples.self_s": (sampled_s, "s"),
        "oracle.sampled.rollouts": (count("oracle.sampled_outcome_triples", "rollouts"), "count"),
        "oracle.sampled.rollouts_per_s": (
            _rate(count("oracle.sampled_outcome_triples", "rollouts"), sampled_s), "1/s"),
        "dataset.generate_synthetic_experiment.self_s": (
            get("dataset.generate_synthetic_experiment"), "s"),
        "dataset.write_bundle.self_s": (get("dataset.write_bundle"), "s"),
        "dataset.bytes_written": (count("dataset.write_bundle", "bytes"), "bytes"),
        "dataset.read_bundle.calls": (get("dataset.read_bundle", "calls"), "count"),
        "dataset.read_bundle.self_s": (get("dataset.read_bundle"), "s"),
        "dataset.parse_values_csv.self_s": (get("dataset.parse_values_csv"), "s"),
        "dataset.parse_predictions_csv.self_s": (parse_s, "s"),
        "dataset.rows_parsed": (count("dataset.parse_predictions_csv", "rows"), "count"),
        "dataset.rows_per_s": (_rate(count("dataset.parse_predictions_csv", "rows"), parse_s), "1/s"),
        "metrics.score_dataset.calls": (get("metrics.score_dataset", "calls"), "count"),
        "metrics.score_dataset.self_s": (get("metrics.score_dataset"), "s"),
        "metrics.predictions_scored": (count("metrics.score_dataset", "predictions"), "count"),
        "metrics.scores_per_prediction": (scored / bundled if bundled else 0.0, "ratio"),
        "rankoverlap.mrbo_table.self_s": (get("rankoverlap.mrbo_table"), "s"),
        "rankoverlap.cells": (count("rankoverlap.mrbo_table", "cells"), "count"),
        "report.build_metrics_table.self_s": (get("report.build_metrics_table"), "s"),
        "report.grade_distribution.self_s": (get("report.grade_distribution"), "s"),
        "report.participant_loss_sums.self_s": (get("report.participant_loss_sums"), "s"),
        "report.vote_matrix.calls": (get("report.vote_matrix", "calls"), "count"),
        "report.vote_matrix.self_s": (get("report.vote_matrix"), "s"),
        "report.render.self_s": (
            sum(t["self_s"] for n, t in totals.items() if n.startswith("report.render_")), "s"),
        "stats.run_pipeline.self_s": (get("stats.run_pipeline"), "s"),
        "stats.shapiro_wilk.calls": (get("stats.shapiro_wilk", "calls"), "count"),
        "stats.shapiro_wilk.self_s": (get("stats.shapiro_wilk"), "s"),
        "stats.levene_median.self_s": (get("stats.levene_median"), "s"),
        "stats.comparison.self_s": (get("stats.anova_oneway") + get("stats.kruskal_wallis"), "s"),
        "stats.observations": (count("stats.run_pipeline", "observations"), "count"),
        "stats.errors": (stats_errors, "count"),
        "trace.overhead_ratio": (sum(c["traced_main_s"] for c in commands) / main_s, "ratio"),
    }


def import_times(stderr: str, packages=("predscore", "scipy", "numpy")) -> dict[str, float]:
    """Cumulative seconds per package from ``python -X importtime`` output,
    summing each package's outermost entries only."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = dict.fromkeys(packages, 0.0)
    ancestors: list[tuple[int, str]] = []
    # importtime prints a module after its children, so walk backwards
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in ancestors):
            totals[top] += seconds
        ancestors.append((depth, name))
    return totals


def median_import_times(stderrs: list[str]) -> dict[str, float]:
    runs = [import_times(s) for s in stderrs]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write main_s and spans")
    parser.add_argument("--wrap", type=int, choices=[0, 1], required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import predscore.cli

    recorder = Recorder()
    if opts.wrap:
        recorder.install()
    entry = predscore.cli.main  # the wrapper itself when installed
    start = time.perf_counter()
    try:
        return entry(argv)
    finally:
        doc = {"main_s": time.perf_counter() - start, "spans": recorder.spans}
        Path(opts.out).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
