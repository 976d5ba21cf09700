import csv
import filecmp
import gc
import io
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from prediction_rows import predictions_of
from predscore import cli, report
from predscore.cli import main
from predscore.dataset import (CUSTOM, ActionManifest, ExperimentBundle, csv_text, read_bundle,
                               write_bundle)
from predscore.errors import ValidationError
from predscore.metrics import SPACES, MetricSample, score_dataset, score_table
from predscore.osutil import write_files
from predscore.report import build_metrics_table, render_metrics_csv
from predscore.values import DecisionValues
from test_golden_outputs import make_bundles

SIM_FLAGS = [
    "simulate",
    "--m", "9", "--n", "4", "--k", "4",
    "--participants", "16",
    "--treatments", "NONE,OTB",
    "--seed", "7",
    "--rollouts", "24",
]


def simulate(tmp_path, name="bundle", extra=()):
    out = tmp_path / name
    code = main(SIM_FLAGS + list(extra) + ["--out-dir", str(out)])
    assert code == 0
    return out


def listed_unpredicted_treatment(tmp_path):
    """A 12-participant bundle over treatments A and B whose manifest also
    lists treatment C, which no prediction names."""
    bundle_dir = tmp_path / "listed"
    assert main(
        ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
         "--treatments", "A,B", "--seed", "3", "--behavior", "uniform",
         "--out-dir", str(bundle_dir)]
    ) == 0
    manifest = bundle_dir / "manifest.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["treatments"].append("C")
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    return bundle_dir


def overflowing_bundle(tmp_path, others=None, decisions=("P1",)):
    """A 12-participant 3x3 bundle whose decisions (P1 unless given) value
    their chosen action at 1e308, and every other action at ``others`` if
    given."""
    bundle_dir = tmp_path / "overflow"
    assert main(
        ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
         "--treatments", "A,B", "--seed", "1", "--out-dir", str(bundle_dir)]
    ) == 0
    values = bundle_dir / "values.csv"
    rows = list(csv.reader(values.read_text(encoding="utf-8").splitlines()))
    for row in rows:
        if row[0] in decisions:
            row[2] = "1e308" if row[3] == "1" else others or row[2]
    values.write_text(csv_text(rows[0], rows[1:]), encoding="utf-8")
    return bundle_dir


def assert_identical_dirs(a, b):
    comparison = filecmp.dircmp(a, b)
    assert not comparison.left_only and not comparison.right_only
    for name in comparison.common_files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path, capsys):
        out = simulate(tmp_path)
        bundle = read_bundle(out)
        assert len(bundle.manifest.actions) == 36
        assert len(bundle.decisions) == 4
        assert len(bundle.predictions) == 16 * 4
        captured = capsys.readouterr().out
        assert "decisions=4" in captured

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = simulate(tmp_path, "a")
        b = simulate(tmp_path, "b")
        assert_identical_dirs(a, b)

    def test_invalid_board_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--m", "3", "--n", "3", "--k", "10", "--participants", "4",
             "--treatments", "T", "--seed", "1", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2

    def test_mutation_changes_bundle(self, tmp_path):
        a = simulate(tmp_path, "plain")
        b = simulate(tmp_path, "mutated", extra=["--mutation", "0.3"])
        assert (a / "values.csv").read_bytes() != (b / "values.csv").read_bytes()

    def test_negative_mutation_exits_2(self, tmp_path, capsys):
        code = main(SIM_FLAGS + ["--mutation", "-1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_mutation_exits_2(self, tmp_path, capsys, magnitude):
        code = main(SIM_FLAGS + ["--mutation", magnitude, "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_exhaustive_oracle_on_large_board_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--m", "6", "--n", "6", "--k", "4", "--participants", "4",
             "--treatments", "T", "--seed", "1", "--oracle", "exhaustive",
             "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "--oracle exhaustive" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("oracle", ["exhaustive", "auto"])
    def test_depth_limit_on_the_exhaustive_oracle_exits_2(self, tmp_path, capsys, oracle):
        """A 3x3 board has 9 squares, so auto picks the exhaustive oracle too."""
        code = main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
             "--treatments", "T", "--seed", "1", "--oracle", oracle, "--depth-limit", "1",
             "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: depth_limit applies only to the sampled oracle, "
                                "not 'exhaustive'\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("participants, treatments, extra, error", [
        ("6", "A,A,B", [], "treatment 'A' is listed more than once"),
        ("3", "A,B,C,D", [], "participants must be at least the 4 treatments, got 3"),
        ("4", "A,\udcff", [], "treatment '\\udcff' is not UTF-8"),  # argv byte 0xff
        ("4", "A,B", ["--behavior", "1_0, \u0665"],  # float() reads both weights
         "behavior must be 'best', 'uniform' or comma-separated decimal weights, "
         "got '1_0, \u0665'"),
        ("4", "A,B", ["--mutation", "nan"], "mutation magnitude must be finite, got nan"),
        ("4", "A,B", ["--mutation", "inf"], "mutation magnitude must be finite, got inf"),
        ("4", "A,B", ["--mutation=-inf"], "mutation magnitude must be finite, got -inf"),
        # 1e999 is a decimal literal, and float() reads it as inf
        ("4", "A,B", ["--behavior", "1e999,1"], "rank_probs must be non-negative finite numbers"),
        # each weight is finite, but their sum is inf, which every draw would fall past
        ("4", "A,B", ["--behavior", "1e308,1e308"], "rank_probs must have a finite sum"),
    ], ids=["repeated-treatment", "fewer-participants-than-treatments", "non-utf8-treatment",
            "non-decimal-behavior-weight", "nan-mutation", "inf-mutation", "minus-inf-mutation",
            "overflowing-behavior-weight", "behavior-weights-with-an-infinite-sum"])
    def test_bundle_metrics_would_refuse_exits_2_before_writing(
        self, tmp_path, capsys, participants, treatments, extra, error
    ):
        code = main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", participants,
             "--treatments", treatments, "--seed", "1", "--out-dir", str(tmp_path / "x")] + extra
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {error}\n"
        assert not (tmp_path / "x").exists()


class TestFlagValidation:
    @pytest.mark.parametrize("flag, text, kind", [
        ("--participants", "1_0", "int"),
        ("--participants", "\u0668", "int"),  # an Arabic-Indic digit
        ("--seed", " 1", "int"),
        ("--mutation", "1_0", "float"),
        ("--mutation", " 0.5", "float"),
        ("--mutation", "\u0660.\u0665", "float"),
    ])
    def test_a_number_that_is_not_an_ascii_literal_exits_2(
        self, tmp_path, capsys, flag, text, kind
    ):
        # argparse reads every occurrence of a flag, so the repeated one is read too
        with pytest.raises(SystemExit) as exc:
            main(SIM_FLAGS + ["--out-dir", str(tmp_path / "x"), flag, text])
        assert exc.value.code == 2
        assert f"invalid {kind} value: {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["metrics", "--bundle", "b", "--p", "-inf"], "--p must be in (0, 1), got -inf"),
        (["metrics", "--bundle", "b", "--p", "-1e-3"], "--p must be in (0, 1), got -0.001"),
        (["stats", "--bundle", "b", "--space", "rank", "--alpha", "-Infinity"],
         "--alpha must be in (0, 1), got -inf"),
        (SIM_FLAGS + ["--mutation", "-1e-3"], "mutation magnitude must be >= 0, got -0.001"),
        (SIM_FLAGS + ["--mutation", "-.5E+1"], "mutation magnitude must be >= 0, got -5.0"),
    ], ids=["p-inf", "p-exponent", "alpha-infinity", "mutation-exponent", "mutation-dot"])
    def test_a_negative_number_reaches_the_flags_range_check(self, tmp_path, capsys, argv, message):
        """argparse would take "-inf" or "-1e-3" for an option on some or all
        of Python 3.10-3.13, and exit with "expected one argument"."""
        assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_a_mutation_whose_noise_span_overflows_exits_2(self, tmp_path, capsys):
        """uniform(-M, M) computes 2 * M, so M above half the largest float
        is a bad flag, refused before the out-dir is made; M at that bound
        is played."""
        out = tmp_path / "x"
        assert main(SIM_FLAGS + ["--mutation", "9e307", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "usage error: mutation magnitude must be <= 8.988465674311579e+307, got 9e+307\n")
        assert not out.exists()
        assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "2",
                     "--treatments", "A", "--seed", "1", "--mutation", repr(sys.float_info.max / 2),
                     "--out-dir", str(out)]) == 0

    def test_a_negative_seed_reads_as_a_value(self, tmp_path):
        a = simulate(tmp_path, "a", extra=["--seed", "-1"])  # the last --seed is read
        assert_identical_dirs(a, simulate(tmp_path, "b", extra=["--seed=-1"]))
        assert read_bundle(a).manifest.experiment_id.endswith("seed-1")

    def test_bad_format_token_exits_2(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                     "--format", "cvs"])
        assert code == 2
        assert "--format" in capsys.readouterr().err

    def test_bad_persistence_exits_2(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                     "--p", "1.5"])
        assert code == 2
        assert "--p" in capsys.readouterr().err

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        code = main(["stats", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                     "--space", "rank", "--alpha", "0"])
        assert code == 2
        assert "--alpha" in capsys.readouterr().err


class TestMetricsCmd:
    def test_outputs_match_library(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        report = tmp_path / "report"
        code = main(
            ["metrics", "--bundle", str(bundle_dir), "--out-dir", str(report),
             "--format", "csv,markdown,svg"]
        )
        assert code == 0
        bundle = read_bundle(bundle_dir)
        scores = score_table(bundle.values_by_decision())
        expected = render_metrics_csv(build_metrics_table(bundle, bundle.vote_counts(), scores))
        assert (report / "metrics.csv").read_text(encoding="utf-8") == expected
        assert (report / "metrics.md").exists()
        assert (report / "grades.csv").exists()
        assert (report / "boxplot_lv.csv").exists()
        assert (report / "boxplot_lr.svg").exists()

    def test_a_listed_treatment_without_predictions_is_refused(self, tmp_path, capsys):
        """metrics needs every listed treatment in every decision's overlap,
        so it refuses before any loss is summed; stats reports n = 0."""
        bundle_dir = listed_unpredicted_treatment(tmp_path)
        capsys.readouterr()
        argv = ["--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]
        assert main(["metrics", *argv]) == 1
        assert capsys.readouterr().err == "error: treatment 'C' has no predictions for decision 'P1'\n"
        assert not (tmp_path / "r").exists()
        assert main(["stats", *argv, "--space", "value"]) == 0
        doc = json.loads((tmp_path / "r" / "stats_value.json").read_text(encoding="utf-8"))
        assert doc["groups"][2] == {"label": "C", "n": 0}

    def test_all_correct_bundle_scores_perfectly(self, tmp_path):
        bundle_dir = simulate(tmp_path, extra=["--behavior", "best"])
        report = tmp_path / "report"
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(report)]) == 0
        lines = (report / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            for name, cell in zip(header[1:], cells[1:]):
                if name.startswith("mean_lv") or name.startswith("mean_lr"):
                    assert float(cell) == 0.0
                elif name.startswith("mrbo"):
                    assert float(cell) == pytest.approx(1.0, abs=1e-12)

    def test_runs_twice_identically(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for target in (r1, r2):
            assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(target),
                         "--format", "csv,markdown,svg"]) == 0
        assert_identical_dirs(r1, r2)

    def test_single_participant_notice(self, tmp_path, capsys):
        bundle_dir = tmp_path / "solo"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "1",
             "--treatments", "T", "--seed", "3", "--out-dir", str(bundle_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "rep")]) == 0
        assert "single participant" in capsys.readouterr().out

    def test_malformed_bundle_exits_1(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        (bundle_dir / "values.csv").write_text("decision_id,action\n", encoding="utf-8")
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_bundle_file_exits_1(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        (bundle_dir / "predictions.csv").unlink()
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert "predictions.csv" in capsys.readouterr().err


class TestStatsCmd:
    def test_reports_df_and_json(self, tmp_path, capsys):
        bundle_dir = tmp_path / "big"
        assert main(
            ["simulate", "--m", "9", "--n", "4", "--k", "4", "--participants", "120",
             "--treatments", "A,B,C,D", "--seed", "11", "--rollouts", "16",
             "--out-dir", str(bundle_dir)]
        ) == 0
        report = tmp_path / "report"
        code = main(
            ["stats", "--bundle", str(bundle_dir), "--out-dir", str(report),
             "--space", "rank"]
        )
        assert code == 0
        doc = json.loads((report / "stats_rank.json").read_text(encoding="utf-8"))
        assert [g["n"] for g in doc["groups"]] == [30, 30, 30, 30]
        levene = [g for g in doc["gates"] if g["test"] == "levene_median"]
        assert levene[0]["df"][0] == 3.0
        if doc["test_used"] == "kruskal_wallis":
            assert doc["comparison"]["df"] == [3.0]
        else:
            assert doc["comparison"]["df"][0] == 3.0
        out = capsys.readouterr().out
        assert "selected test:" in out
        # the CLI adds no arithmetic: outcome equals a direct library run
        from predscore.report import participant_loss_sums
        from predscore.stats import run_pipeline

        bundle = read_bundle(bundle_dir)
        scores = score_table(bundle.values_by_decision())
        direct = run_pipeline(participant_loss_sums(bundle, scores)["rank"])
        assert doc["test_used"] == direct.test_used
        assert doc["comparison"]["statistic"] == direct.comparison.statistic
        assert doc["comparison"]["p_value"] == direct.comparison.p_value

    def test_identical_groups_exit_1(self, tmp_path, capsys):
        bundle_dir = tmp_path / "flat"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
             "--treatments", "A,B", "--seed", "2", "--behavior", "best",
             "--out-dir", str(bundle_dir)]
        ) == 0
        for space in ("value", "rank"):
            code = main(
                ["stats", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                 "--space", space]
            )
            assert code == 1
            assert "identical" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_identically_distributed_treatments_give_h_zero_and_p_one(self, tmp_path, capsys):
        """Eight treatments whose 21 participants predict alike: H is 0 in
        exact arithmetic, and once rounded below it, df 7 took its root."""
        actions = [f"a{i}" for i in range(9)]
        manifest = ActionManifest("kw", CUSTOM, tuple((a, a) for a in actions))
        values = DecisionValues("d1", {a: 9.0 - i for i, a in enumerate(actions)}, "a0")
        picks = ["a0"] * 11 + ["a1"] * 4 + ["a2", "a3"] + ["a5"] * 3 + ["a8"]
        treatments = tuple(f"T{t}" for t in range(8))
        rows = [(f"{t}p{j}", t, "d1", a) for t in treatments for j, a in enumerate(picks)]
        bundle_dir = write_bundle(
            ExperimentBundle(manifest, (values,), predictions_of(rows), treatments),
            tmp_path / "alike")
        code = main(["stats", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                     "--space", "rank"])
        assert code == 0
        assert "kruskal_wallis: statistic=0 df=(7) p=1\n" in capsys.readouterr().out

    def test_one_treatment_exits_1_before_writing(self, tmp_path, capsys):
        bundle_dir = tmp_path / "one"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "6",
             "--treatments", "A", "--seed", "1", "--out-dir", str(bundle_dir)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["stats", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
             "--space", "rank"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: pipeline needs at least 2 groups of 2 or more observations, got 1\n"
        )
        assert not (tmp_path / "r").exists()

    def test_small_groups_answer_with_kruskal_wallis(self, tmp_path, capsys):
        # 7 participants over A-D: three pairs (no normality gate) and a single.
        bundle_dir = tmp_path / "small"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "7",
             "--treatments", "A,B,C,D", "--seed", "3", "--behavior", "uniform",
             "--out-dir", str(bundle_dir)]
        ) == 0
        report = tmp_path / "r"
        code = main(
            ["stats", "--bundle", str(bundle_dir), "--out-dir", str(report), "--space", "rank"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gate shapiro_wilk on group 'D': not computed (" in out
        assert "statistic=nan" not in out

        def reject(token):
            raise AssertionError(f"non-strict JSON token {token}")

        text = (report / "stats_rank.json").read_text(encoding="utf-8")
        doc = json.loads(text, parse_constant=reject)
        assert doc["excluded"] == ["D"]
        shapiro = doc["gates"][:4]
        assert all(g["statistic"] is None and g["p_value"] == 0.0 and g["reason"] for g in shapiro)
        assert doc["gates"][4]["df"] == [2.0, 3.0]  # levene on A, B and C only
        assert doc["test_used"] == "kruskal_wallis"
        gate_ps = [g["p_value"] for g in doc["gates"]]
        assert (doc["test_used"] == "anova") == all(p >= doc["alpha"] for p in gate_ps)

    def test_a_listed_treatment_without_participants_is_an_empty_group(self, tmp_path, capsys):
        bundle_dir = listed_unpredicted_treatment(tmp_path)
        capsys.readouterr()
        report = tmp_path / "r"
        code = main(
            ["stats", "--bundle", str(bundle_dir), "--out-dir", str(report), "--space", "rank"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gate shapiro_wilk on group 'C': not computed (" in out
        assert "warning: group 'C' has fewer than 2 observations" in out
        doc = json.loads((report / "stats_rank.json").read_text(encoding="utf-8"))
        assert doc["groups"] == [
            {"label": "A", "n": 6}, {"label": "B", "n": 6}, {"label": "C", "n": 0}
        ]
        assert doc["excluded"] == ["C"]
        assert doc["gates"][2]["group"] == "C" and doc["gates"][2]["statistic"] is None
        assert doc["gates"][3]["df"] == [1.0, 10.0]  # levene on A and B only
        assert doc["test_used"] == "kruskal_wallis"


    def test_levene_on_rounding_level_spread_is_infinite_in_both_spaces(self, tmp_path, capsys):
        # Groups A-C hold two participants each, so every absolute deviation
        # from a group median is the same in exact arithmetic.
        bundle_dir = tmp_path / "pairs"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "7",
             "--treatments", "A,B,C,D", "--seed", "3", "--behavior", "uniform",
             "--out-dir", str(bundle_dir)]
        ) == 0
        capsys.readouterr()
        for space in ("value", "rank"):
            report = tmp_path / space
            code = main(
                ["stats", "--bundle", str(bundle_dir), "--out-dir", str(report),
                 "--space", space]
            )
            assert code == 0
            assert "gate levene_median on groups: statistic=inf p=0\n" in capsys.readouterr().out
            doc = json.loads((report / f"stats_{space}.json").read_text(encoding="utf-8"))
            levene = doc["gates"][4]
            assert levene["test"] == "levene_median"
            assert (levene["statistic"], levene["p_value"]) == (None, 0.0)


class TestVotesCmd:
    def test_matrix_and_svg(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        report = tmp_path / "votes"
        code = main(
            ["votes", "--bundle", str(bundle_dir), "--out-dir", str(report),
             "--decision", "P1", "--group-by", "treatment", "--format", "csv,svg"]
        )
        assert code == 0
        for treatment in ("NONE", "OTB"):
            csv_path = report / f"votes_P1_{treatment}.csv"
            lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
            assert len(lines) == 5  # header + 4 rows
            total = sum(
                int(cell) for line in lines[1:] for cell in line.split(",")[1:]
            )
            assert total == 8  # 16 participants round-robin over 2 treatments
            assert (report / f"votes_P1_{treatment}.svg").exists()

    def test_unknown_decision_exits_1(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        code = main(
            ["votes", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "v"),
             "--decision", "P99"]
        )
        assert code == 1
        assert not (tmp_path / "v").exists()

    def test_a_pending_decision_exits_1_naming_it_pending(self, tmp_path, capsys):
        bundle_dir = tmp_path / "b"
        assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
                     "--treatments", "A,B", "--seed", "1", "--out-dir", str(bundle_dir)]) == 0
        manifest = bundle_dir / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["pending_decisions"] = [{"decision_id": "P9", "actions": ["A1", "B1"]}]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        for decision, error in (("P9", "decision 'P9' is pending: it has no value table"),
                                ("P10", "unknown decision 'P10'")):
            code = main(["votes", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "v"),
                         "--decision", decision])
            assert code == 1
            assert capsys.readouterr().err == f"error: {error}\n"
            assert not (tmp_path / "v").exists()

    def test_non_mnk_bundle_exits_1_naming_the_domain(self, tmp_path, capsys):
        from predscore.dataset import load_four_towers_fixture, write_bundle

        bundle_dir = write_bundle(load_four_towers_fixture(), tmp_path / "towers")
        code = main(
            ["votes", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "v"),
             "--decision", "DP1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "'four_towers'" in err and "square" not in err
        assert not (tmp_path / "v").exists()

    def test_unanimous_votes_fill_a_single_cell(self, tmp_path):
        bundle_dir = simulate(tmp_path, "best", extra=["--behavior", "best"])
        report = tmp_path / "vb"
        assert main(
            ["votes", "--bundle", str(bundle_dir), "--out-dir", str(report),
             "--decision", "P1"]
        ) == 0
        lines = (report / "votes_P1_all.csv").read_text(encoding="utf-8").strip().splitlines()
        counts = [int(cell) for line in lines[1:] for cell in line.split(",")[1:]]
        assert sorted(counts)[-1] == 16
        assert sum(1 for c in counts if c) == 1


    @pytest.mark.parametrize("treatments, error", [
        ("A x,A+x", "treatments 'A x' and 'A+x' would both write votes_P1_A_x.csv"),
        ("A,a", "treatments 'A' and 'a' would both write votes_P1_A.csv"),
    ], ids=["same-slug", "same-casefold"])
    def test_treatments_writing_the_same_file_exit_1_before_writing(
        self, tmp_path, capsys, treatments, error
    ):
        bundle_dir = tmp_path / "b"
        assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
                     "--treatments", treatments, "--seed", "1", "--out-dir", str(bundle_dir)]) == 0
        capsys.readouterr()
        report = tmp_path / "v"
        code = main(["votes", "--bundle", str(bundle_dir), "--out-dir", str(report),
                     "--decision", "P1", "--group-by", "treatment"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not report.exists()


def _read_csv(path):
    return list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"))))


class TestHostileIds:
    """Ids the bundle reader accepts come back out intact from every report:
    CSVs quote them as the bundle files do, markdown escapes its cell
    separators and line breaks, and SVG escapes markup and writes U+FFFD
    for the code points XML 1.0 cannot hold."""

    @pytest.fixture(params=['a,b"c|d<e&f\ng', 'a,b"c|d<e&f\ng\rh', 'a<\x01b\x1f\tc\uffff'],
                    ids=["quoted", "all-quoted", "control"])
    def hostile(self, request, tmp_path):
        text = request.param
        plain = tmp_path / "plain"
        assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "6",
                     "--treatments", "A,B", "--seed", "1", "--decisions", "2",
                     "--out-dir", str(plain)]) == 0
        bundle = read_bundle(plain)
        names = {dv.decision_id: f"{dv.decision_id}{text}" for dv in bundle.decisions}
        names.update({t: f"{t}{text}" for t in bundle.treatments})
        names.update({p: f"{p}{text}" for p in bundle.predictions.columns[0]})
        bundle = bundle._replace(
            decisions=tuple(dv._replace(decision_id=names[dv.decision_id])
                            for dv in bundle.decisions),
            predictions=predictions_of((names[p], names[t], names[d], a)
                                       for p, t, d, a in bundle.predictions),
            treatments=tuple(names[t] for t in bundle.treatments),
        )
        write_bundle(bundle, tmp_path / "hostile")
        return read_bundle(tmp_path / "hostile"), tmp_path / "hostile"

    def test_every_report_parses_back_with_ids_intact(self, hostile, tmp_path, capsys):
        bundle, bundle_dir = hostile
        report = tmp_path / "report"
        decision = bundle.decisions[0].decision_id
        for argv in (["metrics", "--format", "csv,markdown,svg"], ["grade"],
                     ["votes", "--decision", decision, "--group-by", "treatment",
                      "--format", "csv,svg"]):
            assert main(argv + ["--bundle", str(bundle_dir), "--out-dir", str(report)]) == 0
        written = capsys.readouterr().out.splitlines()
        assert len(written) == len(list(report.iterdir())) == 12
        treatments = sorted(bundle.treatments)
        decisions = [dv.decision_id for dv in bundle.decisions]

        for path in report.glob("*.csv"):
            rows = _read_csv(path)
            assert {len(row) for row in rows} == {len(rows[0])}, path.name
        metrics = _read_csv(report / "metrics.csv")
        assert [row[0] for row in metrics[1:]] == treatments
        assert metrics[0][1:3] == ["mean_lv_all", f"mean_lv_{decisions[0]}"]
        grades = _read_csv(report / "grades.csv")
        assert [row[:2] for row in grades[1:]] == [[d, t] for d in decisions for t in treatments]
        for space in "vr":
            assert [row[0] for row in _read_csv(report / f"boxplot_l{space}.csv")[1:]] == treatments

        samples = score_dataset(bundle.predictions, bundle.values_by_decision())
        expected = csv_text(
            ["participant_id", "treatment", "decision_id", "predicted", "lv", "lr", "grade"],
            [(s.participant_id, s.treatment, s.decision_id, s.predicted, s.lv, s.lr, s.grade)
             for s in samples],
        )
        assert (report / "samples.csv").read_bytes() == expected.encode("utf-8")
        assert {row[0] for row in _read_csv(report / "samples.csv")[1:]} == set(
            bundle.predictions.columns[0])

        markdown = (report / "metrics.md").read_text(encoding="utf-8").splitlines()
        assert len(markdown) == 2 + len(treatments)
        for line in markdown:
            cells = re.split(r"(?<!\\)\|", line)[1:-1]
            assert len(cells) == 1 + len(metrics[0]) - 2  # best_in is CSV only

        for path in report.glob("*.svg"):
            root = ET.fromstring(path.read_bytes())
            if path.name.startswith("boxplot"):
                labels = [el.text for el in root if el.tag.endswith("text")]
                assert labels == [re.sub("[\x01\x1f\uffff]", "\ufffd", re.sub(r"\r\n?", "\n", t))
                                  for t in treatments]


class TestUnvaluedPrediction:
    @pytest.mark.parametrize("command", [["votes", "--decision", "P2"], ["metrics"]])
    def test_prediction_of_an_occupied_square_exits_1(self, tmp_path, capsys, command):
        bundle_dir = tmp_path / "b"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
             "--treatments", "A,B", "--seed", "1", "--out-dir", str(bundle_dir)]
        ) == 0
        bundle = read_bundle(bundle_dir)
        valued = bundle.values_by_decision()["P2"].entries
        occupied = sorted(set(bundle.manifest.action_ids) - set(valued))
        path = bundle_dir / "predictions.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = next(i for i, line in enumerate(lines) if line.split(",")[2] == "P2")
        participant = lines[row].split(",")[0]
        lines[row] = ",".join(lines[row].split(",")[:3] + [occupied[0]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        paths = ["--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]
        assert main(command[:1] + paths + command[1:]) == 1
        assert capsys.readouterr().err == (
            f"error: prediction by {participant!r} references action {occupied[0]!r}, "
            f"which decision 'P2' does not value (row {row + 1}, column 'predicted_action')\n"
        )


class TestRefusedBundleFiles:
    @staticmethod
    def small_bundle(tmp_path):
        bundle_dir = tmp_path / "b"
        assert main(
            ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
             "--treatments", "A,B", "--seed", "1", "--out-dir", str(bundle_dir)]
        ) == 0
        return bundle_dir

    def test_stray_values_action_names_its_row(self, tmp_path, capsys):
        bundle_dir = self.small_bundle(tmp_path)
        path = bundle_dir / "values.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = [i for i, line in enumerate(lines) if line.startswith("P1,")][2]
        lines[row] = ",".join(["P1", "Z9"] + lines[row].split(",")[2:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "error: decision 'P1' values actions missing from the manifest: ['Z9'] "
            f"(row {row + 1}, column 'action')\n"
        )

    @pytest.mark.parametrize("command", [
        ["metrics"], ["stats", "--space", "rank"], ["grade"],
        ["votes", "--decision", "P1", "--group-by", "treatment"],
    ], ids=lambda command: command[0])
    def test_treatment_listed_twice_exits_1(self, tmp_path, capsys, command):
        bundle_dir = self.small_bundle(tmp_path)
        path = bundle_dir / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["treatments"] = ["A", "B", "A"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "r"
        code = main([command[0], "--bundle", str(bundle_dir), "--out-dir", str(report),
                     *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: treatment 'A' is listed more than once\n"
        assert not report.exists()

    def test_non_string_treatment_is_a_malformed_manifest(self, tmp_path, capsys):
        bundle_dir = self.small_bundle(tmp_path)
        path = bundle_dir / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["treatments"] = [["A"], "B"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "error: malformed manifest.json: TypeError('treatment must be a string, got list')\n"
        )


class TestGradeCmd:
    def test_sample_rows(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        report = tmp_path / "g"
        assert main(["grade", "--bundle", str(bundle_dir), "--out-dir", str(report)]) == 0
        lines = (report / "samples.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "participant_id,treatment,decision_id,predicted,lv,lr,grade"
        assert len(lines) == 1 + 16 * 4

    def test_bytes_match_joined_lines(self, tmp_path):
        bundle_dir = simulate(tmp_path)
        report = tmp_path / "g"
        assert main(["grade", "--bundle", str(bundle_dir), "--out-dir", str(report)]) == 0
        bundle = read_bundle(bundle_dir)
        lines = ["participant_id,treatment,decision_id,predicted,lv,lr,grade"]
        for s in score_dataset(bundle.predictions, bundle.values_by_decision()):
            lines.append(
                f"{s.participant_id},{s.treatment},{s.decision_id},{s.predicted},"
                f"{s.lv!r},{s.lr},{s.grade}"
            )
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (report / "samples.csv").read_bytes() == expected

    @pytest.mark.parametrize("name", ["predictions.csv", "values.csv"])
    def test_oversized_csv_field_exits_1(self, tmp_path, capsys, name):
        bundle_dir = simulate(tmp_path)
        path = bundle_dir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[1] = '"' + "x" * 200_000 + '"'
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["grade", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: malformed {name}: field larger than field limit")
        assert "(row 3)" in err
        assert "Traceback" not in err


class TestOverflowingLosses:
    """Losses near the float range are refused with one error line, never
    a traceback or an inf in a report."""

    @pytest.mark.parametrize("command, message", [
        (["metrics"], "the vote-weighted sum overflows"),
        (["stats", "--space", "value"], "levene_median: a sum overflows; the values are too large"),
    ])
    def test_a_sum_that_overflows_exits_1(self, tmp_path, capsys, command, message):
        bundle_dir = overflowing_bundle(tmp_path)
        capsys.readouterr()
        code = main([*command, "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not (tmp_path / "r").exists()

    def test_a_loss_sum_that_overflows_is_refused_only_in_its_own_space(self, tmp_path, capsys):
        """Two losses near 1e308 in one participant's row sum to inf in value
        space: stats --space value names the participant, the treatment and
        the space, and stats --space rank, whose losses are unchanged, writes
        what it writes for the bundle before the values were raised."""
        plain = tmp_path / "plain"
        assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
                     "--treatments", "A,B", "--seed", "1", "--out-dir", str(plain)]) == 0
        bundle_dir = overflowing_bundle(tmp_path, decisions=("P1", "P2"))
        capsys.readouterr()
        base = ["--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]
        assert main(["stats", "--space", "value", *base]) == 1
        assert capsys.readouterr().err == (
            "error: the value-space loss sum of participant 'p003' in treatment 'A' overflows\n")
        assert not (tmp_path / "r").exists()
        assert main(["stats", "--space", "rank", *base]) == 0
        assert main(["stats", "--space", "rank", "--bundle", str(plain),
                     "--out-dir", str(tmp_path / "plain_r")]) == 0
        out = capsys.readouterr().out
        assert "selected test: anova" in out
        assert ((tmp_path / "r" / "stats_rank.json").read_bytes()
                == (tmp_path / "plain_r" / "stats_rank.json").read_bytes())

    @pytest.mark.parametrize("command", [["grade"], ["metrics"], ["stats", "--space", "rank"]])
    def test_a_value_spread_that_is_not_finite_exits_1(self, tmp_path, capsys, command):
        bundle_dir = overflowing_bundle(tmp_path, others="-1e308")
        capsys.readouterr()
        code = main([*command, "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")])
        assert (code, capsys.readouterr().err) == (
            1, "error: decision 'P1': value spread from -1e+308 to 1e+308 is not finite "
               "(row 2, column 'value')\n")
        assert not (tmp_path / "r").exists()

    def test_finite_loss_sums_further_apart_than_the_float_range_plot(self, tmp_path):
        """Treatment A's two value-space sums, -1.78e308 and 1.78e308, are
        finite but lie further apart than the float range: its boxplot row
        has finite, ordered quartiles and the chart no inf or nan."""
        bundle_dir = tmp_path / "wide"
        write_files(bundle_dir, {
            "manifest.json": json.dumps({
                "experiment_id": "wide", "domain": {"type": "custom"},
                "actions": [{"id": "X", "name": "X"}, {"id": "Y", "name": "Y"}],
                "treatments": ["A", "B"]}),
            "values.csv": "decision_id,action,value,chosen\n"
                          "P1,X,-8.9e307,1\nP1,Y,8.9e307,0\nP2,X,8.9e307,1\nP2,Y,-8.9e307,0\n",
            "predictions.csv": "participant_id,treatment,decision_id,predicted_action\n"
                               "p1,A,P1,Y\np1,A,P2,X\np2,A,P1,X\np2,A,P2,Y\n"
                               "p3,B,P1,X\np3,B,P2,X\np4,B,P1,X\np4,B,P2,X\n",
        })
        report = tmp_path / "r"
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(report),
                     "--format", "csv,svg"]) == 0
        rows = _read_csv(report / "boxplot_lv.csv")
        assert rows[1][:2] == ["A", "2"]
        low, q1, median, q3, high = map(float, rows[1][2:])
        assert (low, high) == (-1.78e308, 1.78e308)
        assert low <= q1 <= median <= q3 <= high
        svg = (report / "boxplot_lv.svg").read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg


class TestUnusableOutDir:
    """An out-dir that cannot be made is a one-line error and exit 1."""

    def test_simulate_fails_before_playing(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out = tmp_path / "afile" / "sub"

        def play(**kwargs):
            raise AssertionError("games played before the out-dir was made")

        monkeypatch.setattr(cli, "generate_synthetic_experiment", play)
        assert main(SIM_FLAGS + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_metrics_into_a_file(self, tmp_path, capsys):
        bundle_dir = simulate(tmp_path)
        out = tmp_path / "afile"
        out.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err


class TestReportWrites:
    """A command's files are written under temporary names and renamed only
    once all of them are written, so a failure while any text is made leaves
    the old files, or none."""

    @staticmethod
    def failing_lines():
        yield "participant_id,decision_id\n"
        raise RuntimeError("scoring failed")

    @pytest.mark.parametrize("old", [None, "old,report\n"], ids=["new-file", "existing-file"])
    def test_a_failed_write_leaves_the_old_contents(self, tmp_path, capsys, old):
        target = tmp_path / "samples.csv"
        if old is not None:
            target.write_text(old, encoding="utf-8")
        with pytest.raises(RuntimeError, match="scoring failed"):
            cli._write(tmp_path, {"samples.csv": self.failing_lines()})
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["samples.csv"])
        if old is not None:
            assert target.read_text(encoding="utf-8") == old
        assert capsys.readouterr().out == ""

    def test_a_write_replaces_the_file_and_leaves_nothing_else(self, tmp_path, capsys):
        target = tmp_path / "samples.csv"
        target.write_text("old,report\n", encoding="utf-8")
        cli._write(tmp_path, {"samples.csv": iter(["a,b\n", "1,2\n"])})
        assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]
        assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"
        assert capsys.readouterr().out == f"wrote {target}\n"

    def test_a_failed_second_text_leaves_the_first_target(self, tmp_path, capsys):
        first = tmp_path / "metrics.csv"
        first.write_text("old,metrics\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="scoring failed"):
            cli._write(tmp_path, {"metrics.csv": "new,metrics\n",
                                  "samples.csv": self.failing_lines()})
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
        assert first.read_text(encoding="utf-8") == "old,metrics\n"
        assert capsys.readouterr().out == ""

    def test_the_writer_makes_the_directory_and_returns_the_paths_in_order(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        paths = write_files(out, {"z.csv": "z\n", "a.csv": iter(["a\n", "b\n"])})
        assert paths == [out / "z.csv", out / "a.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "z.csv"]
        assert [p.read_bytes() for p in paths] == [b"z\n", b"a\nb\n"]
        assert capsys.readouterr().out == ""

    def test_a_late_refusal_in_metrics_leaves_the_old_reports(self, tmp_path, capsys, monkeypatch):
        bundle_dir = simulate(tmp_path)
        out = tmp_path / "report"
        names = ["metrics.csv", "metrics.md", "grades.csv", "boxplot_lv.csv", "boxplot_lv.svg",
                 "boxplot_lr.csv", "boxplot_lr.svg"]
        out.mkdir()
        for name in names:
            (out / name).write_text(f"old {name}\n", encoding="utf-8")
        rendered = []

        def render_boxplot_svg(rows):  # the last render: the rank space's plot
            rendered.append(rows)
            if len(rendered) == 2:
                raise ValidationError("cannot plot the rank space")
            return "<svg/>\n"

        monkeypatch.setattr(cli, "render_boxplot_svg", render_boxplot_svg)
        capsys.readouterr()
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(out),
                     "--format", "csv,markdown,svg"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: cannot plot the rank space\n"
        assert "wrote" not in captured.out
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).read_text(encoding="utf-8") == f"old {name}\n"

    def test_metrics_summarizes_each_group_once(self, tmp_path, monkeypatch):
        bundle_dir = simulate(tmp_path)
        treatments = read_bundle(bundle_dir).treatments
        # boxplot_rows summarizes a group's checked values with _five_numbers,
        # which five_number_summary calls too
        summary, summarized = report._five_numbers, []
        monkeypatch.setattr(report, "_five_numbers",
                            lambda values: summarized.append(values) or summary(values))
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r"),
                     "--format", "csv,svg"])
        assert code == 0
        assert len(summarized) == len(SPACES) * len(treatments)

    def test_a_late_refusal_in_metrics_makes_no_out_dir(self, tmp_path, capsys, monkeypatch):
        bundle_dir = simulate(tmp_path)

        def refuse(*args, **kwargs):
            raise ValidationError("no table")

        monkeypatch.setattr(cli, "build_metrics_table", refuse)
        code = main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == "error: no table\n"
        assert not (tmp_path / "r").exists()


class TestNoRecordIsBuilt:
    """Every command reads the predictions' columns and the score table:
    with MetricSample made to raise, each command exits 0, on a simulated
    bundle and on the golden shuffled bundle, whose rows are out of order
    and one of whose participants is in two treatments."""

    @pytest.fixture(autouse=True)
    def refuse_records(self, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError(f"a {cls.__name__} was built")

        monkeypatch.setattr(MetricSample, "__new__", refuse)
        monkeypatch.setattr(MetricSample, "_make", classmethod(refuse))
        with pytest.raises(AssertionError, match="a MetricSample was built"):
            MetricSample("p1", "P1", "T", "A1", 0.0, 0, "A")

    @pytest.mark.parametrize("source", ["simulated", "shuffled"])
    def test_every_command_reads_the_columns(self, tmp_path, capsys, source):
        if source == "simulated":
            bundle_dir = simulate(tmp_path)
        else:
            bundle_dir = make_bundles(tmp_path)["shuffled"]
        base = ["--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]
        for argv in (["metrics", "--format", "csv,markdown,svg"],
                     ["stats", "--space", "value"], ["stats", "--space", "rank"],
                     ["votes", "--decision", "P1", "--group-by", "treatment", "--format", "csv,svg"],
                     ["grade"]):
            assert main([*argv, *base]) == 0, capsys.readouterr().err


class TestGcState:
    """main pauses the cycle collector while a command runs and leaves it as
    it found it, whatever the exit."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_collector_is_paused_during_the_command(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_grade", lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert main(["grade", "--bundle", str(tmp_path)]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_stays_enabled_on_success_and_error(self, tmp_path, capsys):
        gc.enable()
        bundle_dir = simulate(tmp_path)
        assert gc.isenabled()
        (bundle_dir / "predictions.csv").unlink()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]) == 1
        assert gc.isenabled()

    def test_disabled_stays_disabled_on_success_and_error(self, tmp_path, capsys):
        gc.disable()
        bundle_dir = simulate(tmp_path)
        assert not gc.isenabled()
        (bundle_dir / "predictions.csv").unlink()
        assert main(["metrics", "--bundle", str(bundle_dir), "--out-dir", str(tmp_path / "r")]) == 1
        assert not gc.isenabled()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "cli_bundle"
        result = subprocess.run(
            [sys.executable, "-m", "predscore.cli"] + SIM_FLAGS + ["--out-dir", str(out)],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.json").exists()

    def test_help_documents_exit_codes(self):
        result = subprocess.run(
            [sys.executable, "-m", "predscore.cli", "--help"],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert result.returncode == 0
        assert "exit codes" in result.stdout
