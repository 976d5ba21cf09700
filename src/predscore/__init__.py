"""Partial-credit scoring of human predictions of an agent's actions.

The package bundles an MNK-game simulator with a search-based value
oracle, the per-prediction scores (loss in value, loss in rank, letter
grades), group-level rank-overlap comparison, the gated ANOVA /
Kruskal-Wallis treatment comparison, and the file formats plus CLI that
tie them together.
"""

from .actions import QUADRANTS, SquareId, canonical_key
from .board import (
    AGENT,
    DRAW,
    ONGOING,
    OPPONENT,
    WIN,
    Board,
    BoardConfig,
    GameStatus,
    apply_move,
    game_status,
    new_game,
)
from .dataset import (
    ActionManifest,
    ExperimentBundle,
    ParticipantModel,
    generate_synthetic_experiment,
    load_four_towers_fixture,
    make_mnk_manifest,
    parse_predictions_csv,
    parse_values_csv,
    read_bundle,
    serialize_predictions_csv,
    serialize_values_csv,
    write_bundle,
)
from .errors import (
    DegenerateDataError,
    ParseError,
    PredscoreError,
    UnknownActionError,
    ValidationError,
)
from .metrics import (
    DEFAULT_GRADE_SCALE,
    GradeScale,
    MetricSample,
    PredictionRecord,
    Predictions,
    ar_score,
    av_score,
    discretized_loss_in_rank,
    loss_in_rank,
    loss_in_value,
    score_dataset,
    score_table,
)
from .oracle import (
    EXHAUSTIVE_LIMIT,
    AgentSpec,
    Mutation,
    exact_outcome_triples,
    sampled_outcome_triples,
    value_oracle,
)
from .rankoverlap import (
    DEFAULT_PERSISTENCE,
    agent_ranklist,
    mrbo_ext,
    mrbo_table,
    rbo_ext,
    vote_ranklist,
)
from .stats import (
    DEFAULT_ALPHA,
    PipelineResult,
    SampleGroup,
    TestResult,
    anova_oneway,
    kruskal_wallis,
    levene_median,
    run_pipeline,
    shapiro_wilk,
)
from .values import DecisionValues, OutcomeTriple

__version__ = "0.1.0"
