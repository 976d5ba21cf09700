"""Import budget: every CLI command starts a fresh interpreter, so the
package must not load modules that only one code path uses.  Each check
runs in a child process and counts only the modules the import itself adds."""

import ast
import importlib
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


def _scoring_statements(tmp_path) -> str:
    """Statements that run metrics, stats, votes and grade on a simulated
    4-participant bundle, in that order."""
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
    return "".join(
        f"assert main({cmd[:1] + ['--bundle', bundle, '--out-dir', report] + cmd[1:]!r}) == 0\n"
        for cmd in commands
    )


def test_scoring_commands_load_no_heavy_module(tmp_path):
    """metrics, stats, votes and grade score from float tables and vote
    counts, so none of them loads fractions or decimal.  Each group here has
    two participants, too few for the Shapiro-Wilk gate, whose normal
    quantiles come from statistics and so load both by design (see the
    test above)."""
    statements = "from predscore.cli import main\n" + _scoring_statements(tmp_path)
    assert loaded_by(statements) == []


def test_scoring_commands_on_a_cached_bundle_load_no_heavy_module(tmp_path):
    """The same commands with the threshold lowered, so that the bundle is
    cached, run twice: the first misses and writes the entry, and every
    later one hits it.  Hashing the key and the entry loads no hashlib."""
    statements = ("from predscore.cli import main\n"
                  "import predscore.dataset\n"
                  "predscore.dataset._CACHE_MIN_BYTES = 0\n" + _scoring_statements(tmp_path) * 2)
    assert loaded_by(statements) == []
    assert len(list((Path(os.environ["XDG_CACHE_HOME"]) / "predscore").glob("*.columns"))) == 1


def test_every_name_the_layer_tracer_wraps_resolves():
    """perfbench/layertrace.py looks each LAYERS name up on its predscore
    module, so a function that moves to another module breaks a traced
    benchmark run; the table is read from that file, not copied here."""
    layertrace = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    [layers] = [ast.literal_eval(node.value) for node in ast.parse(layertrace.read_bytes()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert layers
    for module, names in layers.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"predscore.{module}"), name))


# The helpers one module of the package owns and others call: each has a
# public name in its owner, and none is exported from the package.
SHARED_HELPERS = {
    "board": ("CELL_CODE", "CODE_CELL", "window_table", "wins"),
    "dataset": ("DECIMAL", "NON_FINITE", "csv_text"),
    "metrics": ("by_participant_and_decision", "participant_totals", "vote_tally"),
    "osutil": ("fan_out", "write_files"),
}


def test_no_module_imports_another_modules_private_name():
    """A name that starts with an underscore belongs to its own module, so
    a reader of that module knows every caller of it; a helper that another
    module calls is one of SHARED_HELPERS instead."""
    package = Path(predscore.__file__).parent
    crossings = [
        f"{path.name}: from .{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__")
                                               and alias.name.endswith("__"))
    ]
    assert crossings == []


def test_shared_helpers_are_owned_and_not_exported():
    for module, names in SHARED_HELPERS.items():
        owner = importlib.import_module(f"predscore.{module}")
        for name in names:
            assert hasattr(owner, name), (module, name)
            assert name not in vars(predscore), name
