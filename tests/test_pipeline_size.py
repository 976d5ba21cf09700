"""The size of the gated pipeline at the paper's design.

The paper assigns 86 participants to eight treatments.  Every simulated
treatment draws from one participant model, so the null holds, and each
rejection at alpha is a Type I error.  Choosing the comparison after a
normality and an equal-variance gate can distort that rate, so this test
runs the whole pipeline, not one statistic: 1000 fixed seeds of
``simulate``'s design on a 3x3 k=3 board with the exhaustive oracle, then
the per-participant loss sums and run_pipeline in both spaces.
"""

import math
from collections import Counter

from predscore.board import BoardConfig
from predscore.cli import build_parser
from predscore.dataset import ParticipantModel, generate_synthetic_experiment
from predscore.metrics import SPACES, score_table
from predscore.oracle import AgentSpec
from predscore.report import participant_loss_sums
from predscore.stats import ANOVA, DEFAULT_ALPHA, KRUSKAL_WALLIS, run_pipeline

SEEDS = range(1000)
README_TREATMENTS = "NONE,STT,OTB,BTW,STT+OTB,OTB+BTW,STT+BTW,ALL"


def test_the_gated_pipeline_rejects_a_true_null_at_about_alpha():
    args = build_parser().parse_args(["simulate", "--m", "3", "--n", "3", "--k", "3",
                                      "--participants", "86", "--treatments", README_TREATMENTS,
                                      "--seed", "0"])
    behavior = ParticipantModel.parse(args.behavior)  # simulate's default weights
    config, treatments = BoardConfig(args.m, args.n, args.k), args.treatments.split(",")
    rejected, branches = Counter(), Counter()
    for seed in SEEDS:
        bundle = generate_synthetic_experiment(config, [AgentSpec()], args.participants,
                                               treatments, behavior, seed)
        groups = participant_loss_sums(bundle, score_table(bundle.values_by_decision()))
        for space in SPACES:
            result = run_pipeline(groups[space], DEFAULT_ALPHA)
            branches[space, result.test_used] += 1
            rejected[space] += result.comparison.p_value < DEFAULT_ALPHA
    # a rejection count is binomial(n, alpha) under the null: allow 3 sd
    n = len(SEEDS)
    bound = 3 * math.sqrt(DEFAULT_ALPHA * (1 - DEFAULT_ALPHA) / n)
    summary = {space: {"rejected": rejected[space] / n,
                       **{test: branches[space, test] for test in (ANOVA, KRUSKAL_WALLIS)}}
               for space in SPACES}
    print(f"rejection rate and branch counts over {n} seeds: {summary}")  # shown by -rP
    for space in SPACES:
        assert abs(rejected[space] / n - DEFAULT_ALPHA) <= bound, (bound, summary)
        # both branches of the gate run at this design, so both are measured
        assert branches[space, ANOVA] and branches[space, KRUSKAL_WALLIS], summary
