"""End-to-end benchmark of the predscore CLI.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 15 --trace 0

Runs the CLI the way a study analyst does: one process per command, one
command at a time (a closed loop with one client).  Inputs are generated
from --seed.  Every output is checked by independent recomputation
(checks.py).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass (layertrace.py) with
--trace 1.  A fuller record of each run, with the machine, every command's
timings and the SHA-256 of every output file, goes to .perfbench_out/.

See perfbench/README.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

import checks
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Children import predscore from SRC with the bytecode cache on, as an
# installed package would, whatever the caller's environment says.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

BUNDLE, REPORT = "bundle", "report"
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
TREATMENTS_8 = "NONE,STT,OTB,BTW,STT+OTB,OTB+BTW,STT+BTW,ALL"
TREATMENTS_4 = "NONE,STT,OTB,BTW"
KINDS = ("simulate", "metrics", "stats", "votes", "grade")

WORKLOADS = ("readme", "bulk", "exact")  # README.md says why each exists


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]  # CLI commands of each set-up
    timed: tuple[tuple[str, ...], ...]  # CLI commands of each timed pass
    participants: int
    decisions: int


def _simulate(m, n, k, participants, treatments, seed, *extra):
    return ("simulate", "--m", str(m), "--n", str(n), "--k", str(k),
            "--participants", str(participants), "--treatments", treatments,
            "--seed", str(seed), "--out-dir", BUNDLE, *extra)


def workload(name: str, seed: int) -> Workload:
    metrics = ("metrics", "--bundle", BUNDLE, "--out-dir", REPORT, "--format", "csv,markdown,svg")
    rank = ("stats", "--bundle", BUNDLE, "--out-dir", REPORT, "--space", "rank")
    value = ("stats", "--bundle", BUNDLE, "--out-dir", REPORT, "--space", "value")
    votes = ("votes", "--bundle", BUNDLE, "--out-dir", REPORT, "--decision", "P1",
             "--group-by", "treatment", "--format", "csv,svg")
    grade = ("grade", "--bundle", BUNDLE, "--out-dir", REPORT)
    if name == "readme":
        sim = _simulate(9, 4, 4, 86, TREATMENTS_8, seed)
        return Workload(name, (), (sim, metrics, rank, value, votes, grade), 86, 4)
    if name == "bulk":
        sim = _simulate(9, 4, 4, 100_000, TREATMENTS_8, seed)
        return Workload(name, (sim,), (metrics, rank, votes, grade), 100_000, 4)
    if name == "exact":
        sim = _simulate(4, 3, 3, 86, TREATMENTS_4, seed,
                        "--oracle", "exhaustive", "--agents", "2", "--decisions", "3")
        return Workload(name, (), (sim, metrics), 86, 6)
    raise ValueError(f"unknown workload {name!r}")


def _wait(argv, cwd: Path, log: str) -> tuple[int, float, float]:
    """Run argv to completion; (exit code, wall seconds, max RSS in MB)."""
    start = time.perf_counter()
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_cli(argv, work: Path) -> dict:
    rc, wall, rss = _wait([sys.executable, "-m", "predscore.cli", *argv], work, "cli")
    return {"argv": list(argv), "rc": rc, "wall_s": wall, "rss_mb": rss,
            "stderr": (work / "cli.err").read_text(errors="replace")[-500:]}


def run_child(argv, work: Path, wrap: int, cmd: int) -> dict:
    """One command through layertrace.py, with or without the wrappers."""
    spans = work / f"spans_{cmd}_{wrap}.json"
    rc, wall, rss = _wait([sys.executable, str(HERE / "layertrace.py"), "--out", str(spans),
                           "--wrap", str(wrap), "--", *argv], work, "child")
    if not spans.exists():
        raise RuntimeError(f"traced command failed to start: {(work / 'child.err').read_text()[-500:]}")
    doc = json.loads(spans.read_text(encoding="utf-8"))
    return {"argv": list(argv), "rc": rc, "wall_s": wall, "rss_mb": rss,
            "main_s": doc["main_s"], "spans": doc["spans"]}


def import_probe(work: Path) -> float:
    rc, wall, _ = _wait([sys.executable, "-c", "import predscore"], work, "import")
    if rc != 0:
        raise RuntimeError(f"import predscore failed: {(work / 'import.err').read_text()[-500:]}")
    return wall


def hashes(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under directory, by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def check(wl: Workload, work: Path, run: dict, rng: random.Random) -> list[str]:
    """Output problems of one successful command."""
    argv, bundle, report = run["argv"], work / BUNDLE, work / REPORT
    kind = argv[0]
    if kind == "simulate":
        return checks.check_bundle(bundle, wl.participants, wl.decisions)
    if kind == "grade":
        return checks.check_grade(report, bundle, wl.participants * wl.decisions, rng)
    if kind == "metrics":
        return checks.check_metrics(report, bundle)
    if kind == "votes":
        return checks.check_votes(report, bundle, argv[argv.index("--decision") + 1])
    if kind == "stats":
        return checks.check_stats(report / f"stats_{argv[argv.index('--space') + 1]}.json")
    raise ValueError(kind)


def check_all(wl: Workload, work: Path, runs: list[dict], rng: random.Random) -> None:
    """Set problems and failed on every run."""
    for run in runs:
        run["problems"] = check(wl, work, run, rng) if run["rc"] == 0 else []
        run["failed"] = run["rc"] != 0 or bool(run["problems"])


def warm_up(work: Path) -> float:
    """Import once from SRC, filling the bytecode cache; returns the wall time."""
    where = work / "where.txt"
    rc, wall, _ = _wait([sys.executable, "-c",
                         f"import predscore; open({str(where)!r}, 'w').write(predscore.__file__)"],
                        work, "import")
    if rc != 0 or SRC.resolve() not in Path(where.read_text()).resolve().parents:
        raise RuntimeError(f"predscore does not import from {SRC}")
    return wall


def setup(wl: Workload, root: Path) -> tuple[Path, float, float, list[dict]]:
    """One set-up: temp dir, warm-up import and the workload's set-up commands.
    Returns the directory, the set-up time, the import time and the runs."""
    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(dir=root))
    imported = warm_up(work)
    runs = [run_cli(argv, work) for argv in wl.setup]
    elapsed = time.perf_counter() - start
    for run in runs:
        if run["rc"] != 0:
            raise RuntimeError(f"set-up command {run['argv'][0]} exited {run['rc']}: {run['stderr']}")
    return work, elapsed, imported, runs


def measure(wl: Workload, seed: int, seconds: float, root: Path) -> tuple[dict, dict]:
    """End-to-end metrics of one run with tracing off."""
    setups, setup_runs, works, problems, imports = [], [], [], [], []
    for _ in range(SETUP_REPEATS):
        work, elapsed, imported, runs = setup(wl, root)
        works.append(work)
        setups.append(elapsed)
        imports.append(imported)
        check_all(wl, work, runs, random.Random(seed))
        setup_runs += runs
    bundle_hashes = [hashes(w / BUNDLE) for w in works if (w / BUNDLE).exists()]
    if any(h != bundle_hashes[0] for h in bundle_hashes):
        problems.append("set-up bundles differ between set-ups")
    work = works[-1]

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        shutil.rmtree(work / REPORT, ignore_errors=True)
        runs = []
        for argv in wl.timed:
            runs.append(run_cli(argv, work))
            # one fresh-interpreter import after each command spreads the
            # import samples over the run, past the machine's slow spells
            imports.append(import_probe(work))
        check_all(wl, work, runs, random.Random(f"{seed}|{len(passes)}"))
        outputs = {"bundle": hashes(work / BUNDLE), "report": hashes(work / REPORT)}
        if passes and outputs != passes[0]["outputs"]:
            problems.append(f"outputs of pass {len(passes)} differ from pass 0")
        passes.append({"runs": runs, "outputs": outputs})

    def per_pass(kinds):
        return statistics.median(
            sum(r["wall_s"] for r in p["runs"] if r["argv"][0] in kinds) for p in passes)

    timed = [r for p in passes for r in p["runs"]]
    simulate_s = (statistics.median(r["wall_s"] for r in setup_runs if r["argv"][0] == "simulate")
                  if wl.setup else per_pass({"simulate"}))
    failed = sum(r["failed"] for r in timed)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "import_s": (statistics.median(imports), "s"),
        "simulate_s": (simulate_s, "s"),
        "pipeline_s": (per_pass(KINDS), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in timed), "MB"),
        "success_ratio": ((len(timed) - failed) / len(timed), "ratio"),
    }
    # Single commands of a few seconds or less spread too much from run to
    # run on a shared machine to carry a bound, so they are reported, not gated.
    commands = {f"{kind}_s": per_pass({kind}) for kind in KINDS[1:]
                if any(argv[0] == kind for argv in wl.timed)}
    problems += [f"{r['argv'][0]}: {p}" for r in setup_runs + timed for p in r["problems"]]
    result = {"correct": not problems, "attempted": len(timed), "failed": failed, "metrics": metrics}
    detail = {"commands_s": commands, "setup_s": setups, "import_s": imports,
              "setup_runs": setup_runs, "passes": passes, "problems": problems}
    return result, detail


def traced(wl: Workload, seed: int, root: Path) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass.

    Each command runs twice in its own process through layertrace.py:
    without the wrappers, writing to the usual directories, then with them,
    writing to *_traced directories.  Both must produce byte-identical files.
    """
    work, _, _, _ = setup(replace(wl, setup=()), root)  # set-up commands run traced below
    commands = []
    for i, argv in enumerate(wl.setup + wl.timed):
        plain = run_child(argv, work, 0, i)
        out = argv.index("--out-dir") + 1
        twin = run_child(argv[:out] + (argv[out] + "_traced",) + argv[out + 1:], work, 1, i)
        plain.update(kind=argv[0], traced_main_s=twin["main_s"], spans=twin["spans"],
                     setup=i < len(wl.setup), traced_rc=twin["rc"])
        commands.append(plain)
    timed = [c for c in commands if not c["setup"]]
    check_all(wl, work, commands, random.Random(f"{seed}|0"))
    outputs = {d: hashes(work / d) for d in (BUNDLE, REPORT)}
    problems = [f"{c['kind']}: {p}" for c in commands for p in c["problems"]]
    problems += [f"{c['kind']}: exit {c['rc']} untraced, {c['traced_rc']} traced"
                 for c in commands if c["rc"] != c["traced_rc"]]
    for d in (BUNDLE, REPORT):
        if hashes(work / f"{d}_traced") != outputs[d]:
            problems.append(f"{d}: outputs differ with the wrappers installed")
    stderrs = [subprocess.run([sys.executable, "-X", "importtime", "-c", "import predscore"],
                              cwd=work, env=ENV, capture_output=True, text=True, check=True).stderr
               for _ in range(3)]
    metrics = {f"import.{k}_s": (v, "s") for k, v in layertrace.median_import_times(stderrs).items()}
    metrics.update(layertrace.layer_metrics(commands))
    failed = sum(c["failed"] for c in timed)
    metrics["cli.fail_ratio"] = (failed / len(timed), "ratio")
    result = {"correct": not problems, "attempted": len(timed), "failed": failed, "metrics": metrics}
    spans = [dict(s, kind=c["kind"], cmd=i) for i, c in enumerate(commands) for s in c.pop("spans")]
    detail = {"commands": commands, "outputs": outputs, "problems": problems, "spans": spans}
    return result, detail


def machine(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "platform": platform.platform(), "loadavg": os.getloadavg(), "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the predscore CLI")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum timed time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from a traced pass instead")
    opts = parser.parse_args()
    if not (SRC / "predscore" / "cli.py").is_file():
        print(f"no predscore sources under {SRC}", file=sys.stderr)
        return 2
    info = machine(opts.seed)
    wl = workload(opts.workload, opts.seed)
    OUT.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if opts.trace:
            result, detail = traced(wl, opts.seed, root)
        else:
            result, detail = measure(wl, opts.seed, opts.seconds, root)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root)
    record = dict(machine=info, workload=wl.name, argv=sys.argv[1:], **detail,
                  result=result)
    path = OUT / f"{wl.name}_seed{opts.seed}_trace{opts.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    for name, value in detail.get("commands_s", {}).items():
        print(f"{name} {value:.4f} s (median over passes)")
    print(f"record: {path.relative_to(ROOT)}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
