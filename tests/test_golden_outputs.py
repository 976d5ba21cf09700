"""Golden outputs: the SHA-256 of every file that `metrics`, `votes` and
`grade` write for two fixed bundles, and of the simulated bundle files.

The bundles are a seeded 9x4, 86-participant simulation and a copy of it
whose predictions.csv rows are shuffled and in which one participant's rows
carry two treatments.  The hashes in golden_outputs.json were recorded from
the per-prediction implementation that preceded the vote-count tables, so
any changed report byte fails here.  stats_*.json is left out: its p-values
go through libm and may differ in the last bit between platforms.

Under "bundles" are the values.csv and predictions.csv that `simulate`
writes for the seeded bundle, for a depth-limited, mutated two-agent run,
and for a 4,133-participant run whose participants are drawn in several
blocks, so that a changed rollout or participant draw fails by file name.

To see which file differs, run this module; it prints the current hashes
as JSON in the layout of golden_outputs.json.
"""

import csv
import hashlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from predscore.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
TREATMENTS = "NONE,STT,OTB,BTW,STT+OTB,OTB+BTW,STT+BTW,ALL"
SIMULATE = ["simulate", "--m", "9", "--n", "4", "--k", "4", "--participants", "86",
            "--treatments", TREATMENTS, "--seed", "5"]
LIMITED = ["simulate", "--m", "9", "--n", "4", "--k", "4", "--participants", "12",
           "--treatments", "A,B", "--seed", "3", "--depth-limit", "5", "--mutation", "0.05",
           "--agents", "2"]
# Two full blocks of participants and a partial one (dataset._PARTICIPANT_BLOCK
# is 2048), so that simulate maps several blocks through oracle._fan_out.
BLOCKS = ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4133",
          "--treatments", "A,B,C", "--seed", "9"]
DECISIONS = ("P1", "P2", "P3", "P4")
BUNDLE_FILES = ("predictions.csv", "values.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_bundles(root: Path) -> dict[str, Path]:
    seeded = root / "seeded"
    assert main(SIMULATE + ["--out-dir", str(seeded)]) == 0
    shuffled = root / "shuffled"
    shutil.copytree(seeded, shuffled)
    path = shuffled / "predictions.csv"
    header, *rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    random.Random(11).shuffle(rows)
    # p007's rows for P2 and P4 move to another treatment, so that one
    # participant's loss sums fall into two groups.
    for row in rows:
        if row[0] == "p007" and row[2] in ("P2", "P4"):
            assert row[1] != "ALL"
            row[1] = "ALL"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + rows)
    path.write_text(out.getvalue(), encoding="utf-8")
    return {"seeded": seeded, "shuffled": shuffled}


def report_hashes(bundle: Path, report: Path) -> dict[str, str]:
    """Run metrics, votes (every decision, per treatment and pooled) and
    grade on bundle into report; SHA-256 of every file written."""
    base = ["--bundle", str(bundle), "--out-dir", str(report)]
    assert main(["metrics", *base, "--format", "csv,markdown,svg"]) == 0
    for decision in DECISIONS:
        for group_by in ("treatment", "all"):
            assert main(["votes", *base, "--decision", decision, "--group-by", group_by,
                         "--format", "csv,svg"]) == 0
    assert main(["grade", *base]) == 0
    return {p.name: sha256(p) for p in sorted(report.iterdir())}


def current_hashes(root: Path) -> dict[str, dict]:
    bundles = make_bundles(root)
    doc = {name: report_hashes(bundle, root / f"report_{name}")
           for name, bundle in bundles.items()}
    assert main(LIMITED + ["--out-dir", str(root / "limited")]) == 0
    assert main(BLOCKS + ["--out-dir", str(root / "blocks")]) == 0
    doc["bundles"] = {name: {f: sha256(path / f) for f in BUNDLE_FILES}
                      for name, path in (("seeded", bundles["seeded"]),
                                         ("limited", root / "limited"),
                                         ("blocks", root / "blocks"))}
    return doc


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return current_hashes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("bundle", ["seeded", "shuffled"])
def test_outputs_match_recorded_hashes(hashes, bundle):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[bundle]
    assert sorted(hashes[bundle]) == sorted(golden)
    changed = sorted(name for name in golden if hashes[bundle][name] != golden[name])
    assert changed == []


@pytest.mark.parametrize("bundle", ["seeded", "limited", "blocks"])
def test_simulated_bundle_matches_recorded_hashes(hashes, bundle):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["bundles"][bundle]
    assert sorted(hashes["bundles"][bundle]) == sorted(golden)
    changed = sorted(name for name in golden if hashes["bundles"][bundle][name] != golden[name])
    assert changed == []


def test_shuffled_bundle_moves_one_participant(hashes):
    """The copy's row order changes no output; p007's two moved rows change
    the per-treatment tables and the vote maps of P2 and P4 only."""
    seeded, shuffled = hashes["seeded"], hashes["shuffled"]
    assert seeded["boxplot_lv.csv"] != shuffled["boxplot_lv.csv"]
    assert seeded["votes_P2_ALL.csv"] != shuffled["votes_P2_ALL.csv"]
    assert seeded["votes_P1_ALL.csv"] == shuffled["votes_P1_ALL.csv"]
    assert seeded["votes_P2_all.csv"] == shuffled["votes_P2_all.csv"]


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        doc = current_hashes(Path(tmp))
    sys.stdout.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
