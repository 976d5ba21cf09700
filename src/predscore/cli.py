"""Command-line interface: simulate bundles, score them, run the stats
pipeline, and export vote heat maps and per-prediction grades.

Exit codes: 0 success, 1 data error (malformed bundle, degenerate groups,
generation failure), 2 usage error (bad flags).

:func:`main` runs one command with the cycle collector paused and puts the
collector back as it found it, so in-process callers keep their own GC
state.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from pathlib import Path

from .actions import SquareId
from .board import BoardConfig
from .dataset import (
    _DECIMAL,
    _NON_FINITE,
    ParticipantModel,
    _write_files,
    check_synthetic_design,
    generate_synthetic_experiment,
    read_bundle,
    write_bundle,
)
from .errors import PredscoreError, ValidationError
from .metrics import score_table
from .oracle import EXHAUSTIVE, EXHAUSTIVE_LIMIT, SAMPLED, AgentSpec, Mutation
from .rankoverlap import DEFAULT_PERSISTENCE
from .report import (
    SPACES,
    build_metrics_table,
    grade_distribution,
    participant_loss_sums,
    render_boxplot_csv,
    render_boxplot_svg,
    render_grade_distribution_csv,
    render_metrics_csv,
    render_metrics_markdown,
    render_samples_csv,
    render_vote_matrix_csv,
    render_vote_svg,
    vote_matrix,
)
from .stats import DEFAULT_ALPHA, run_pipeline

EPILOG = "exit codes: 0 success, 1 data error, 2 usage error"


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """An ASCII integer literal: int() alone also takes "1_0", padding and
    non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _float(text: str) -> float:
    """An ASCII decimal literal, as values.csv numbers are read, or a nan or
    inf spelling, which the flag's own range check refuses."""
    if not (_DECIMAL.fullmatch(text) or _NON_FINITE.fullmatch(text)):
        raise ValueError(text)
    return float(text)


# argparse names a flag's type by its reader: "invalid int value: '1_0'"
_int.__name__, _float.__name__ = "int", "float"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text)


def _parse_formats(text: str, allowed: set[str]) -> set[str]:
    formats = {f for f in text.split(",") if f}
    unknown = formats - allowed
    if not formats or unknown:
        raise ValidationError(
            f"--format must be a comma subset of {sorted(allowed)}, got {text!r}"
        )
    return formats


def _write(out_dir, texts: dict) -> None:
    """Write a command's report files, {name: text}, all or none, and say so."""
    for path in _write_files(out_dir, texts):
        print(f"wrote {path}")


def _usage_error(exc) -> int:
    print(f"usage error: {exc}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    try:
        config = BoardConfig(m=args.m, n=args.n, k=args.k)
        treatments = [t for t in args.treatments.split(",") if t]
        behavior = ParticipantModel.parse(args.behavior)
        if args.rollouts < 1:
            raise ValidationError("--rollouts must be >= 1")
        oracle_kind = args.oracle
        if oracle_kind == "auto":
            oracle_kind = EXHAUSTIVE if config.squares <= EXHAUSTIVE_LIMIT else SAMPLED
        elif oracle_kind == EXHAUSTIVE and config.squares > EXHAUSTIVE_LIMIT:
            raise ValidationError(f"--oracle {EXHAUSTIVE} supports at most {EXHAUSTIVE_LIMIT} "
                                  f"squares (board has {config.squares}); use --oracle {SAMPLED}")
        agents = []
        for i in range(args.agents):
            mutation = None
            if args.mutation is not None:
                mutation = Mutation(seed=args.seed * 100_003 + i, magnitude=args.mutation)
            agents.append(
                AgentSpec(
                    oracle=oracle_kind,
                    rollouts=args.rollouts if oracle_kind == SAMPLED else None,
                    seed=args.seed * 1_009 + i if oracle_kind == SAMPLED else None,
                    depth_limit=args.depth_limit,
                    mutation=mutation,
                )
            )
        check_synthetic_design(agents, args.participants, treatments, args.decisions)
    except ValidationError as exc:
        return _usage_error(exc)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable out-dir fails before the games are played
    bundle = generate_synthetic_experiment(
        config=config,
        agents=agents,
        participants=args.participants,
        treatments=treatments,
        behavior=behavior,
        seed=args.seed,
        decisions_per_agent=args.decisions,
    )
    write_bundle(bundle, out)
    print(f"bundle written to {out}")
    print(
        f"actions={len(bundle.manifest.actions)} decisions={len(bundle.decisions)} "
        f"participants={args.participants} treatments={len(treatments)} "
        f"predictions={len(bundle.predictions)}"
    )
    return 0


def cmd_metrics(args) -> int:
    try:
        formats = _parse_formats(args.format, {"csv", "markdown", "svg"})
        if not 0 < args.p < 1:
            raise ValidationError(f"--p must be in (0, 1), got {args.p}")
    except ValidationError as exc:
        return _usage_error(exc)
    bundle = read_bundle(args.bundle)
    counts = bundle.vote_counts()
    scores = score_table(bundle.values_by_decision())
    table = build_metrics_table(bundle, counts, scores, p=args.p)
    texts = {}
    if "csv" in formats:
        texts["metrics.csv"] = render_metrics_csv(table)
    if "markdown" in formats:
        texts["metrics.md"] = render_metrics_markdown(table)
    distribution = grade_distribution(bundle, counts, scores)
    texts["grades.csv"] = render_grade_distribution_csv(distribution)
    for space, groups in participant_loss_sums(bundle, scores).items():
        texts[f"boxplot_l{space[0]}.csv"] = render_boxplot_csv(groups)
        if "svg" in formats:
            texts[f"boxplot_l{space[0]}.svg"] = render_boxplot_svg(groups)
    _write(args.out_dir, texts)
    if min(len(g.values) for g in groups) <= 1:
        print("notice: at least one treatment has a single participant; "
              "comparative statistics are omitted for such groups")
    return 0


def _json_number(value):
    """Strict JSON has no token for an infinite F (zero within-group spread)."""
    return value if value is not None and math.isfinite(value) else None


def cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:
        return _usage_error(f"--alpha must be in (0, 1), got {args.alpha}")
    bundle = read_bundle(args.bundle)
    scores = score_table(bundle.values_by_decision())
    groups = participant_loss_sums(bundle, scores, (args.space,))[args.space]
    result = run_pipeline(groups, alpha=args.alpha)
    labels = [g.label for g in groups] + [None]  # per-group gates, then levene
    gates_doc = []
    for label, gate in zip(labels, result.gate_results):
        gate_doc = {
            "test": gate.test,
            "group": label,
            "statistic": _json_number(gate.statistic),
            "df": list(gate.df),
            "p_value": gate.p_value,
        }
        target = f"group {label!r}" if label else "groups"
        if gate.reason is None:
            outcome = f"statistic={gate.statistic:.6g} p={gate.p_value:.4g}"
        else:
            gate_doc["reason"] = gate.reason
            outcome = f"not computed ({gate.reason})"
        print(f"gate {gate.test} on {target}: {outcome}")
        gates_doc.append(gate_doc)
    for warning in result.warnings:
        print(f"warning: {warning}")
    comp = result.comparison
    df_text = ",".join(f"{v:g}" for v in comp.df)
    print(f"selected test: {result.test_used}")
    print(f"{comp.test}: statistic={comp.statistic:.6g} df=({df_text}) p={comp.p_value:.4g}")
    doc = {
        "space": args.space,
        "alpha": args.alpha,
        "groups": [{"label": g.label, "n": len(g.values)} for g in groups],
        "gates": gates_doc,
        "test_used": result.test_used,
        "comparison": {
            "test": comp.test,
            "statistic": _json_number(comp.statistic),
            "df": list(comp.df),
            "p_value": comp.p_value,
        },
        "warnings": list(result.warnings),
    }
    if result.excluded:
        doc["excluded"] = list(result.excluded)
    _write(args.out_dir,
           {f"stats_{args.space}.json": json.dumps(doc, indent=2, allow_nan=False) + "\n"})
    return 0


def cmd_votes(args) -> int:
    try:
        formats = _parse_formats(args.format, {"csv", "svg"})
    except ValidationError as exc:
        return _usage_error(exc)
    bundle = read_bundle(args.bundle)
    by_treatment = args.group_by == "treatment"
    selections = [(t, t) for t in sorted(bundle.treatments)] if by_treatment else [(None, "all")]
    # casefolded file stem -> the stem, the treatment (None pools every group) and its
    # label; stems that differ only in case name one file on a case-insensitive filesystem
    stems = {}
    for treatment, label in selections:
        stem = f"votes_{_slug(args.decision)}_{_slug(label)}"
        if stem.casefold() in stems:
            first, _, other = stems[stem.casefold()]
            raise ValidationError(f"treatments {other!r} and {label!r} "
                                  f"would both write {first}.csv")
        stems[stem.casefold()] = stem, treatment, label
    counts = bundle.vote_counts()
    grids = {stem: vote_matrix(bundle, counts, args.decision, treatment)
             for stem, treatment, _ in stems.values()}
    texts = {}
    for stem, grid in grids.items():
        texts[f"{stem}.csv"] = render_vote_matrix_csv(grid, bundle.manifest.board.m)
        if "svg" in formats:
            chosen = bundle.values_by_decision()[args.decision].chosen  # vote_matrix refused any other
            texts[f"{stem}.svg"] = render_vote_svg(grid, SquareId.parse(chosen))
    _write(args.out_dir, texts)
    return 0


def cmd_grade(args) -> int:
    bundle = read_bundle(args.bundle)
    scores = score_table(bundle.values_by_decision())
    _write(args.out_dir, {"samples.csv": render_samples_csv(bundle.predictions, scores)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predscore",
        description="Partial-credit scoring of predictions of an agent's actions",
        epilog=EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic experiment bundle", epilog=EPILOG)
    sim.add_argument("--m", type=_int, required=True, help="board columns")
    sim.add_argument("--n", type=_int, required=True, help="board rows")
    sim.add_argument("--k", type=_int, required=True, help="winning run length")
    sim.add_argument("--participants", type=_int, required=True)
    sim.add_argument("--treatments", required=True, help="comma-separated labels")
    sim.add_argument("--seed", type=_int, required=True)
    sim.add_argument("--mutation", type=_float, default=None, help="value-noise magnitude")
    sim.add_argument("--agents", type=_int, default=1, help="number of agents to play")
    sim.add_argument("--decisions", type=_int, default=4, help="decisions recorded per agent")
    sim.add_argument(
        "--oracle", choices=["auto", EXHAUSTIVE, SAMPLED], default="auto",
        help="value oracle backend (auto: exhaustive on tiny boards)",
    )
    sim.add_argument("--rollouts", type=_int, default=200, help="rollouts per square (sampled)")
    sim.add_argument("--depth-limit", type=_int, default=None, help="rollout depth limit in plies")
    sim.add_argument(
        "--behavior", default="0.5,0.2,0.1,0.08,0.07,0.05",
        help="'best', 'uniform', or comma-separated rank weights",
    )
    sim.add_argument("--out-dir", default="bundle")
    sim.set_defaults(func=cmd_simulate)

    met = sub.add_parser("metrics", help="per-treatment metric tables", epilog=EPILOG)
    met.add_argument("--bundle", required=True)
    met.add_argument("--out-dir", default="report")
    met.add_argument("--format", default="csv", help="comma subset of csv,markdown,svg")
    met.add_argument("--p", type=_float, default=DEFAULT_PERSISTENCE, help="overlap persistence")
    met.set_defaults(func=cmd_metrics)

    sta = sub.add_parser("stats", help="gated treatment comparison", epilog=EPILOG)
    sta.add_argument("--bundle", required=True)
    sta.add_argument("--out-dir", default="report")
    sta.add_argument("--space", choices=SPACES, required=True,
                     help="sum each participant's loss in this space")
    sta.add_argument("--alpha", type=_float, default=DEFAULT_ALPHA, help="gate threshold")
    sta.set_defaults(func=cmd_stats)

    vot = sub.add_parser("votes", help="vote heat maps for one decision", epilog=EPILOG)
    vot.add_argument("--bundle", required=True)
    vot.add_argument("--out-dir", default="report")
    vot.add_argument("--decision", required=True)
    vot.add_argument("--group-by", choices=["all", "treatment"], default="all")
    vot.add_argument("--format", default="csv", help="comma subset of csv,svg")
    vot.set_defaults(func=cmd_votes)

    gra = sub.add_parser("grade", help="per-prediction scores as CSV", epilog=EPILOG)
    gra.add_argument("--bundle", required=True)
    gra.add_argument("--out-dir", default="report")
    gra.set_defaults(func=cmd_grade)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each "--flag -x" written "--flag=-x" where -x reads as a
    negative number.  argparse takes an argument that starts with "-" for an
    option unless it looks like a negative number, and "-inf" and "-1e-3"
    do not on every Python version."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and flag != "--" and "=" not in flag and arg.startswith("-")
                and (_DECIMAL.fullmatch(arg) or _NON_FINITE.fullmatch(arg))):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    gc_was_enabled = gc.isenabled()
    # Commands build hundreds of thousands of acyclic objects: full collections would free nothing.
    gc.disable()
    try:
        return args.func(args)
    except (PredscoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
