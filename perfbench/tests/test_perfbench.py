"""Tests of the benchmark itself: output checks, span arithmetic, inputs.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from predscore.cli import main as cli  # noqa: E402


@pytest.fixture(scope="module")
def graded(tmp_path_factory):
    """A small simulated bundle with its grade and metrics reports."""
    work = tmp_path_factory.mktemp("graded")
    bundle, report = work / "bundle", work / "report"
    assert cli(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
                "--treatments", "A,B", "--seed", "3", "--decisions", "2",
                "--out-dir", str(bundle)]) == 0
    assert cli(["grade", "--bundle", str(bundle), "--out-dir", str(report)]) == 0
    assert cli(["metrics", "--bundle", str(bundle), "--out-dir", str(report)]) == 0
    return bundle, report


def test_checks_pass_on_real_outputs(graded):
    bundle, report = graded
    assert checks.check_bundle(bundle, 12, 2) == []
    assert checks.check_grade(report, bundle, 24, random.Random(0)) == []
    assert checks.check_metrics(report, bundle) == []


def test_grade_check_rejects_corrupted_row(graded, tmp_path):
    bundle, report = graded
    lines = (report / "samples.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[5] = str(int(fields[5]) + 1)  # loss in rank off by one
    lines[5] = ",".join(fields)
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_grade(tmp_path, bundle, 24, random.Random(0))
    assert len(problems) == 1 and fields[0] in problems[0]


def test_metrics_check_rejects_wrong_mean(graded, tmp_path):
    bundle, report = graded
    lines = (report / "metrics.csv").read_text().splitlines()
    col = lines[0].split(",").index("mean_lr_all")
    fields = lines[1].split(",")
    fields[col] = repr(float(fields[col]) + 1e-6)
    lines[1] = ",".join(fields)
    (tmp_path / "metrics.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_metrics(tmp_path, bundle)
    assert len(problems) == 1 and fields[0] in problems[0]


def test_grade_check_rejects_missing_row(graded, tmp_path):
    bundle, report = graded
    lines = (report / "samples.csv").read_text().splitlines()
    (tmp_path / "samples.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_grade(tmp_path, bundle, 24, random.Random(0))


def _stats_doc(gate_ps, comparison_p, test_used):
    return {
        "alpha": 0.05,
        "gates": [{"test": "shapiro_wilk", "p_value": p} for p in gate_ps],
        "test_used": test_used,
        "comparison": {"test": test_used, "p_value": comparison_p},
    }


@pytest.mark.parametrize(
    "doc, ok",
    [
        (_stats_doc([0.3, 0.6, 0.2], 0.04, "anova"), True),
        (_stats_doc([0.3, 0.01, 0.2], 0.04, "kruskal_wallis"), True),
        (_stats_doc([0.3, 1.2, 0.2], 0.04, "anova"), False),  # p > 1
        (_stats_doc([0.3, 0.6, 0.2], 1.0000001, "anova"), False),
        (_stats_doc([0.3, 0.01, 0.2], 0.04, "anova"), False),  # gate failed
    ],
)
def test_stats_check(tmp_path, doc, ok):
    path = tmp_path / "stats_rank.json"
    path.write_text(json.dumps(doc))
    assert (checks.check_stats(path) == []) is ok


def _span(name, start, end, parent=None, **extra):
    return dict(name=name, start=start, end=end, parent=parent, cmd=0, **extra)


def test_self_time_on_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("dataset.read_bundle", 1.0, 4.0, 0, counts={"predictions": 8}),
        _span("dataset.parse_predictions_csv", 2.0, 3.0, 1),
        _span("stats.run_pipeline", 5.0, 9.0, 0, error=True),
        _span("stats.shapiro_wilk", 5.5, 6.0, 3, error=True),
        _span("stats.shapiro_wilk", 6.0, 7.5, 3),
    ]
    totals = layertrace.layer_totals(spans)
    assert totals["cli.main"]["self_s"] == pytest.approx(3.0)
    assert totals["dataset.read_bundle"]["self_s"] == pytest.approx(2.0)
    assert totals["dataset.parse_predictions_csv"]["self_s"] == pytest.approx(1.0)
    assert totals["stats.run_pipeline"]["self_s"] == pytest.approx(2.0)
    assert totals["stats.shapiro_wilk"]["self_s"] == pytest.approx(2.0)
    assert totals["stats.shapiro_wilk"]["calls"] == 2
    assert totals["dataset.read_bundle"]["counts"] == {"predictions": 8}
    # only the error that left the stats layer counts
    assert totals["stats.run_pipeline"]["errors"] == 1
    assert totals["stats.shapiro_wilk"]["errors"] == 0


def test_self_time_counts_overlapping_children_once():
    parent = _span("p", 0.0, 10.0)
    children = [_span("c", 1.0, 5.0, 0), _span("c", 3.0, 6.0, 0), _span("c", 9.0, 12.0, 0)]
    assert layertrace.self_time(parent, children) == pytest.approx(10.0 - 5.0 - 1.0)


def test_import_times_sum_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        10 |         60 |   scipy",
        "import time:        40 |         40 |     scipy.special._ufuncs",
        "import time:       100 |        140 |   scipy.special",
        "import time:        30 |        530 | predscore",
    ])
    times = layertrace.import_times(stderr)
    assert times["numpy"] == pytest.approx(300e-6)
    assert times["scipy"] == pytest.approx(200e-6)
    assert times["predscore"] == pytest.approx(530e-6)


def _simulated(tmp_path, seed, name):
    argv = run.workload("readme", seed).timed[0]
    out = argv.index("--out-dir") + 1
    assert cli(list(argv[:out]) + [str(tmp_path / name)] + list(argv[out + 1:])) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / name).iterdir()}


def test_seed_determines_generated_inputs(tmp_path):
    first = _simulated(tmp_path, 1, "a")
    assert _simulated(tmp_path, 1, "b") == first
    other = _simulated(tmp_path, 2, "c")
    assert other["predictions.csv"] != first["predictions.csv"]
    assert other["values.csv"] != first["values.csv"]
