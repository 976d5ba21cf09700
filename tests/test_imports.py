"""Import budget: every CLI command starts a fresh interpreter, so the
package must not load modules that only one code path uses.  Each check
runs in a child process and counts only the modules the import itself adds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import predscore

HEAVY = ("dataclasses", "statistics", "fractions", "decimal", "scipy", "numpy")


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
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
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
