"""Import budget: every CLI command starts a fresh interpreter, so the
package must not load modules that only one code path uses.  Each check
runs in a child process and counts only the modules the import itself adds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import predscore

HEAVY = ("dataclasses", "typing", "statistics", "fractions", "decimal", "scipy", "numpy",
         "pickle", "signal", "hashlib")


def loaded_by(statements: str) -> list[str]:
    """The HEAVY modules that running statements adds to a fresh interpreter."""
    src = str(Path(predscore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        f"print(json.dumps(sorted(set({HEAVY!r}) & (set(sys.modules) - before))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        encoding="utf-8", check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_package_import_loads_no_heavy_module():
    assert loaded_by("import predscore") == []


def test_cli_import_loads_no_heavy_module():
    assert loaded_by("import predscore.cli") == []


def test_statistics_and_fractions_load_on_first_use():
    statements = (
        "import predscore as ps\n"
        "w = ps.shapiro_wilk([0.3, 1.2, 0.8, 2.5, 1.1, 0.9])\n"
        "assert 0.0 < w.p_value <= 1.0 and 0.0 < w.statistic <= 1.0, w\n"
        "triples = ps.exact_outcome_triples(ps.new_game(ps.BoardConfig(3, 3, 3)))\n"
        "assert len(triples) == 9\n"
        "assert {type(x).__name__ for t in triples.values() for x in t} == {'Fraction'}\n"
        "assert all(sum(t) == 1 for t in triples.values())\n"
    )
    assert loaded_by(statements) == ["decimal", "fractions", "statistics"]


def test_scoring_commands_load_no_heavy_module(tmp_path):
    """metrics, stats, votes and grade score from float tables and vote
    counts, so none of them loads fractions or decimal.  Each group here has
    two participants, too few for the Shapiro-Wilk gate, whose normal
    quantiles come from statistics and so load both by design (see the
    test above)."""
    from predscore.cli import main

    bundle, report = str(tmp_path / "bundle"), str(tmp_path / "report")
    assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "4",
                 "--treatments", "A,B", "--seed", "1", "--out-dir", bundle]) == 0
    commands = [
        ["metrics", "--format", "csv,markdown,svg"],
        ["stats", "--space", "value"],
        ["votes", "--decision", "P1", "--group-by", "treatment", "--format", "csv,svg"],
        ["grade"],
    ]
    statements = "from predscore.cli import main\n" + "".join(
        f"assert main({cmd[:1] + ['--bundle', bundle, '--out-dir', report] + cmd[1:]!r}) == 0\n"
        for cmd in commands
    )
    assert loaded_by(statements) == []
