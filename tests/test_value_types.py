"""Semantics of the package's immutable value types.

Each type is immutable, compares and hashes as the tuple of its fields,
prints as ``Name(field=value, ...)``, accepts its fields positionally and by
keyword, and refuses invalid input with a fixed exception and message.
"""

import copy
import inspect
import math
import pickle
from functools import partial

import pytest

from prediction_rows import predictions_of
from predscore.actions import SquareId
from predscore.board import AGENT, OPPONENT, WIN, Board, BoardConfig, GameStatus
from predscore.dataset import (
    CUSTOM,
    MNK,
    ActionManifest,
    ExperimentBundle,
    ParticipantModel,
    _manifest_from_dict,
)
from predscore.errors import ParseError, UnknownActionError, ValidationError
from predscore.metrics import GradeScale, MetricSample, Predictions
from predscore.oracle import EXHAUSTIVE, SAMPLED, AgentSpec, Mutation
from predscore.report import MetricsTable
from predscore.stats import ANOVA, PipelineResult, SampleGroup
from predscore.stats import TestResult as GateResult  # a Test* name would be collected
from predscore.values import DecisionValues, OutcomeTriple

CFG = BoardConfig(3, 3, 3)
MANIFEST = ActionManifest("e1", CUSTOM, (("a", "Alpha"), ("b", "Beta")))
VALUES = DecisionValues("d1", {"a": 0.5, "b": -0.5}, "a", {"a": OutcomeTriple(0.5, 0.0, 0.5)})
RESULT = GateResult(ANOVA, 2.0, (1.0, 4.0), 0.2)

# type -> (field names in constructor order, a factory of one valid instance)
TYPES = {
    SquareId: (("col", "row"), lambda: SquareId(1, 2)),
    BoardConfig: (("m", "n", "k"), lambda: BoardConfig(4, 3, 3)),
    Board: (
        ("config", "packed", "to_move"),
        lambda: Board(CFG, 1 << 8, OPPONENT),
    ),
    GameStatus: (("state", "winner"), lambda: GameStatus(WIN, AGENT)),
    OutcomeTriple: (("win", "loss", "draw"), lambda: OutcomeTriple(0.5, 0.25, 0.25)),
    DecisionValues: (
        ("decision_id", "entries", "chosen", "outcomes"),
        lambda: DecisionValues("d1", {"a": 0.5, "b": -0.5}, "a", {"a": OutcomeTriple(0.5, 0.0, 0.5)}),
    ),
    GradeScale: (("bins",), lambda: GradeScale(((4, "A"), (None, "F")))),
    MetricSample: (
        ("participant_id", "decision_id", "treatment", "predicted", "lv", "lr", "grade"),
        lambda: MetricSample("p1", "d1", "T", "b", 1.0, 1, "A"),
    ),
    Mutation: (("seed", "magnitude"), lambda: Mutation(3, 0.1)),
    AgentSpec: (
        ("oracle", "rollouts", "seed", "depth_limit", "mutation"),
        lambda: AgentSpec(SAMPLED, 10, 4, 2, Mutation(3, 0.1)),
    ),
    ActionManifest: (
        ("experiment_id", "domain", "actions", "board"),
        lambda: ActionManifest("e1", MNK, tuple((s, s) for s in ("A1", "A2", "B1", "B2")),
                               BoardConfig(2, 2, 2)),
    ),
    ExperimentBundle: (
        ("manifest", "decisions", "predictions", "treatments", "pending_decisions"),
        lambda: ExperimentBundle(
            MANIFEST, (VALUES,), predictions_of([("p1", "T", "d1", "b")]), ("T",),
            (("d2", ("a", "b")),),
        ),
    ),
    ParticipantModel: (("rank_probs",), lambda: ParticipantModel((0.5, 0.25))),
    MetricsTable: (
        ("decision_ids", "columns", "rows", "lower_is_better"),
        lambda: MetricsTable(("d1",), ("mean_lv_all",), (("T", (0.5,)),), (True,)),
    ),
    SampleGroup: (("label", "values"), lambda: SampleGroup("T", (1.0, 2.0))),
    GateResult: (
        ("test", "statistic", "df", "p_value", "reason"),
        lambda: GateResult(ANOVA, None, (), 0.0, "constant group"),
    ),
    PipelineResult: (
        ("test_used", "gate_results", "comparison", "warnings", "excluded"),
        lambda: PipelineResult(ANOVA, (RESULT,), RESULT, ("w",), ("g",)),
    ),
}
IDS = [cls.__name__ for cls in TYPES]
ALL = pytest.mark.parametrize("cls", list(TYPES), ids=IDS)


def field_tuple(obj):
    return tuple(getattr(obj, name) for name in TYPES[type(obj)][0])


@ALL
def test_assignment_and_deletion_raise_attribute_error(cls):
    names, make = TYPES[cls]
    obj = make()
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert field_tuple(obj) == field_tuple(make())


@ALL
def test_equal_fields_compare_equal_and_hash_as_their_tuple(cls):
    make = TYPES[cls][1]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    fields = field_tuple(a)
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: neither the tuple nor the value hashes
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@ALL
def test_repr_names_every_field(cls):
    names, make = TYPES[cls]
    obj = make()
    inner = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{cls.__name__}({inner})"


@ALL
def test_positional_and_keyword_construction_agree(cls):
    names, make = TYPES[cls]
    obj = make()
    fields = field_tuple(obj)
    assert cls(*fields) == obj
    assert cls(**dict(zip(names, fields))) == obj


@ALL
def test_copies_and_pickles_round_trip(cls):
    obj = TYPES[cls][1]()
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    clone = pickle.loads(pickle.dumps(obj))
    assert type(clone) is cls and clone == obj


def test_defaults():
    assert field_tuple(AgentSpec()) == (EXHAUSTIVE, None, None, None, None)
    assert field_tuple(GameStatus(WIN)) == (WIN, None)
    assert field_tuple(Board(CFG)) == (CFG, 0, AGENT)
    assert ActionManifest("e1", CUSTOM, (("a", "a"),)).board is None
    assert ExperimentBundle(MANIFEST, (), Predictions(), ("T",)).pending_decisions == ()
    assert ParticipantModel().rank_probs is None
    assert DecisionValues("d1", {"a": 1.0}, "a").outcomes is None
    assert RESULT.reason is None
    assert PipelineResult(ANOVA, (), RESULT, ()).excluded == ()


def test_inputs_are_normalized():
    entries = {"a": 1.0}
    dv = DecisionValues("d1", entries, "a", {})
    assert dv.entries == entries and dv.entries is not entries
    assert dv.outcomes is None  # an empty triple map is no triple map
    assert ParticipantModel([1, 2]).rank_probs == (1.0, 2.0)
    group = SampleGroup("g", [1, 2])
    assert group.values == (1.0, 2.0) and type(group.values[0]) is float


def test_named_tuples_equal_plain_tuples_of_their_fields():
    assert SquareId(1, 2) == (1, 2)
    assert OutcomeTriple(1.0, 0.0, 0.0) == (1.0, 0.0, 0.0)
    assert VALUES == field_tuple(VALUES)


@pytest.mark.parametrize("obj", [MetricSample("p1", "d1", "T", "b", 1.0, 1, "A"),
                                 SquareId(1, 2), OutcomeTriple(1.0, 0.0, 0.0)],
                         ids=lambda obj: type(obj).__name__)
def test_records_built_by_the_hundred_thousand_have_no_instance_dict(obj):
    """A tuple subclass without ``__slots__ = ()`` gets a ``__dict__``: 8 more
    bytes for each of a large bundle's records."""
    assert not hasattr(obj, "__dict__")


def test_decision_values_cache_their_rank_order():
    dv = DecisionValues("d1", {"a": -1.0, "b": 2.0, "c": 2.0}, "b")
    assert dv.actions is dv.actions == ("b", "c", "a")
    assert [dv.rank(a) for a in "abc"] == [3, 1, 2]
    assert pickle.loads(pickle.dumps(dv)).actions == ("b", "c", "a")


def _bundle(decisions=(VALUES,), rows=(), treatments=("T",), pending=()):
    return partial(ExperimentBundle, MANIFEST, decisions, predictions_of(rows), treatments, pending)


RECORD = ("p1", "T", "d1", "a")


def _manifest_doc(**fields):
    doc = {"experiment_id": "e1", "domain": {"type": CUSTOM}, "treatments": ["T"],
           "actions": [{"id": "a", "name": "Alpha"}, {"id": "b", "name": "Beta"}]}
    return {**doc, **fields}


INVALID = [
    (partial(SquareId, -1, 0), ValidationError, "square indices must be >= 0, got (-1, 0)"),
    (partial(BoardConfig, 0, 3, 3), ValidationError, "board dimensions must be >= 1, got 0x3 k=3"),
    (partial(BoardConfig, 3, 3, 4), ValidationError,
     "winning run k=4 exceeds both board dimensions 3x3"),
    (partial(BoardConfig, 101, 100, 3), ValidationError,
     "board of 10100 squares exceeds the 10000 guard"),
    (partial(OutcomeTriple, 1.5, -0.5, 0.0), ValidationError, "win fraction out of [0, 1]: 1.5"),
    (partial(OutcomeTriple, 0.2, 1.2, -0.4), ValidationError, "loss fraction out of [0, 1]: 1.2"),
    (partial(OutcomeTriple, 0.0, 0.0, math.nan), ValidationError,
     "draw fraction out of [0, 1]: nan"),
    (partial(OutcomeTriple, 0.5, 0.5, 0.5), ValidationError,
     "outcome fractions must sum to 1, got 1.5"),
    (partial(DecisionValues, "d1", {}, "a"), ValidationError,
     "decision 'd1' has an empty value table"),
    (partial(DecisionValues, "d1", {"a": math.inf}, "a"), ValidationError,
     "decision 'd1': value for 'a' is not finite"),
    (partial(DecisionValues, "d1", {"a": 1e308, "b": -1e308}, "a"), ValidationError,
     "decision 'd1': value spread from -1e+308 to 1e+308 is not finite"),
    (partial(DecisionValues, "d1", {"a": 1.0}, "b"), UnknownActionError,
     "decision 'd1': chosen action 'b' not in value table"),
    (partial(DecisionValues, "d1", {"a": 1.0}, "a", {"c": OutcomeTriple(1.0, 0.0, 0.0)}),
     UnknownActionError, "decision 'd1': outcome triples for unknown actions ['c']"),
    # read_bundle refuses an empty id in values.csv with this message, so
    # no value table, and no bundle, holds one
    (partial(DecisionValues, "", {"a": 1.0}, "a"), ValidationError,
     "decision_id and action must be non-empty"),
    (partial(DecisionValues, "d1", {"a": 1.0, "": 0.5}, "a"), ValidationError,
     "decision_id and action must be non-empty"),
    (lambda: ExperimentBundle(ActionManifest("e", CUSTOM, (("a", "a"), ("b", "b"))),
                              (DecisionValues("", {"a": 1.0}, "a"),), Predictions(), ("T",)),
     ValidationError, "decision_id and action must be non-empty"),
    (lambda: ExperimentBundle(ActionManifest("e", CUSTOM, (("a", "a"), ("", "b"))),
                              (DecisionValues("d1", {"": 1.0}, ""),), Predictions(), ("T",)),
     ValidationError, "decision_id and action must be non-empty"),
    (partial(GradeScale, ()), ValidationError, "grade scale needs at least one bin"),
    (partial(GradeScale, ((4, "A"),)), ValidationError,
     "final grade bin must be unbounded (threshold None)"),
    (partial(GradeScale, ((None, "A"), (None, "F"))), ValidationError,
     "only the final bin may be unbounded"),
    (partial(GradeScale, ((4, "A"), (4, "B"), (None, "F"))), ValidationError,
     "grade thresholds must be strictly increasing: [4, 4]"),
    (partial(GradeScale, ((4, "A"), (None, "A"))), ValidationError,
     "grade labels must be unique: ['A', 'A']"),
    (partial(Mutation, 1, -0.5), ValidationError, "mutation magnitude must be >= 0, got -0.5"),
    (partial(Mutation, 1, math.nan), ValidationError, "mutation magnitude must be finite, got nan"),
    (partial(Mutation, 1, math.inf), ValidationError, "mutation magnitude must be finite, got inf"),
    (partial(Mutation, 1, 9e307), ValidationError,  # uniform(-M, M) would take 2 * M = inf
     "mutation magnitude must be <= 8.988465674311579e+307, got 9e+307"),
    (partial(AgentSpec, oracle="minimax"), ValidationError, "unknown oracle kind 'minimax'"),
    (partial(AgentSpec, SAMPLED, seed=1), ValidationError, "sampled oracle requires rollouts >= 1"),
    (partial(AgentSpec, SAMPLED, rollouts=10), ValidationError,
     "sampled oracle requires an explicit seed"),
    (partial(AgentSpec, depth_limit=0), ValidationError, "depth_limit must be >= 1, got 0"),
    # the exhaustive oracle would ignore it
    (partial(AgentSpec, EXHAUSTIVE, depth_limit=2), ValidationError,
     "depth_limit applies only to the sampled oracle, not 'exhaustive'"),
    (partial(ActionManifest, "e1", "chess", (("a", "a"),)), ValidationError,
     "unknown domain tag 'chess'"),
    (partial(ActionManifest, "e1", CUSTOM, ()), ValidationError,
     "manifest needs at least one action"),
    (partial(ActionManifest, "e1", CUSTOM, (("a", "x"), ("a", "y"))), ValidationError,
     "manifest action ids must be unique"),
    (partial(ActionManifest, "e1", CUSTOM, (("a", "x"), ("b", "x"))), ValidationError,
     "manifest action names must be unique"),
    (partial(ActionManifest, "e1", MNK, (("A1", "A1"),)), ValidationError,
     "mnk manifest requires its board config"),
    (partial(ActionManifest, "e1", MNK, (("A1", "A1"),), CFG), ValidationError,
     "mnk manifest must list every board square in canonical order"),
    (_bundle(pending=(("d1", ("a",)),)), ValidationError,
     "duplicate decision ids in bundle"),
    (_bundle(treatments=("T", "U", "T")), ValidationError,
     "treatment 'T' is listed more than once"),
    (_bundle(decisions=(DecisionValues("d1", {"z": 1.0}, "z"),)), ValidationError,
     "decision 'd1' values actions missing from the manifest: ['z']"),
    (_bundle(rows=[("p1", "T", "d9", "a")]), ValidationError,
     "prediction by 'p1' references unknown decision 'd9'"),
    (_bundle(rows=[("p1", "T", "d1", "z")]), ValidationError,
     "prediction by 'p1' references unknown action 'z'"),
    (_bundle(rows=[("p1", "U", "d1", "a")]), ValidationError,
     "prediction by 'p1' has unlisted treatment 'U'"),
    (_bundle(decisions=(DecisionValues("d1", {"a": 1.0}, "a"),),
             rows=[("p1", "T", "d1", "b")]), ValidationError,
     "prediction by 'p1' references action 'b', which decision 'd1' does not value"),
    (_bundle(rows=[RECORD, RECORD]), ValidationError,
     "duplicate prediction by 'p1' for decision 'd1'"),
    (_bundle(rows=[("", "T", "d1", "a")]), ValidationError,
     "participant_id must be non-empty"),
    (_bundle(rows=[("p1", "", "d1", "a")]), ValidationError,
     "treatment must be non-empty"),
    # predictions are a Predictions, and no other container is read as one
    (partial(ExperimentBundle, MANIFEST, (VALUES,), [RECORD], ("T",)), ValidationError,
     "predictions must be a Predictions, got list"),
    (partial(ExperimentBundle, MANIFEST, (VALUES,), (), ("T",)), ValidationError,
     "predictions must be a Predictions, got tuple"),
    (_bundle(pending=(("d9", ("z",)),)), ValidationError,
     "decision 'd9' values actions missing from the manifest: ['z']"),
    (_bundle(pending=(("d9", ("a", "b", "a")),)), ValidationError,
     "decision 'd9' lists an action more than once"),
    # a lone surrogate cannot be written as UTF-8, so write_bundle would fail on it
    (_bundle(rows=[("p\udcff", "T", "d1", "a")]), ValidationError,
     "participant id 'p\\udcff' is not UTF-8"),
    (_bundle(rows=[("p1", "U\udcff", "d1", "a")], treatments=("T", "U\udcff")),
     ValidationError, "treatment 'U\\udcff' is not UTF-8"),
    (_bundle(treatments=("T", "U\udcfe", "V\udcff")), ValidationError,  # the first is named
     "treatment 'U\\udcfe' is not UTF-8"),
    (_bundle(decisions=(DecisionValues("d\udcff", {"a": 1.0}, "a"),)), ValidationError,
     "decision id 'd\\udcff' is not UTF-8"),
    (_bundle(pending=(("d\udcff", ("a",)),)), ValidationError,
     "decision id 'd\\udcff' is not UTF-8"),
    (partial(ExperimentBundle, ActionManifest("e\udcff", CUSTOM, (("a", "Alpha"),)),
             (), Predictions(), ("T",)), ValidationError, "experiment id 'e\\udcff' is not UTF-8"),
    (partial(ExperimentBundle, ActionManifest("e1", CUSTOM, (("a\udcff", "Alpha"),)),
             (), Predictions(), ("T",)), ValidationError, "action id 'a\\udcff' is not UTF-8"),
    (partial(ExperimentBundle, ActionManifest("e1", CUSTOM, (("a", "Alpha\udcff"),)),
             (), Predictions(), ("T",)), ValidationError,
     "action name 'Alpha\\udcff' is not UTF-8"),
    # an id of another type would stop the UTF-8 check's join with a TypeError
    (_bundle(rows=[(5, "T", "d1", "a")]), ValidationError, "participant id 5 is not a string"),
    (_bundle(rows=[("p1", b"T", "d1", "a")], treatments=("T", b"T")), ValidationError,
     "treatment b'T' is not a string"),
    (_bundle(decisions=(DecisionValues(1, {"a": 1.0}, "a"),)), ValidationError,
     "decision id 1 is not a string"),
    (_bundle(pending=(((2,), ("a",)),)), ValidationError, "decision id (2,) is not a string"),
    (partial(ExperimentBundle, ActionManifest("e1", CUSTOM, ((None, "Alpha"),)),
             (), Predictions(), ("T",)), ValidationError, "action id None is not a string"),
    # an unhashable id stops a lookup with a TypeError, and is named the same way
    (_bundle(rows=[(["p1"], "T", "d1", "a")]), ValidationError,
     "participant id ['p1'] is not a string"),
    (_bundle(rows=[("p1", ["T"], "d1", "a")]), ValidationError, "treatment ['T'] is not a string"),
    (_bundle(rows=[("p1", "T", ["d1"], "a")]), ValidationError,
     "decision id ['d1'] is not a string"),
    (_bundle(rows=[("p1", "T", "d1", ["a"])]), ValidationError,
     "predicted action ['a'] is not a string"),
    (_bundle(rows=[RECORD, ("p2", "T", "d1", {"a"})]), ValidationError,
     "predicted action {'a'} is not a string"),
    (_bundle(treatments=(["U"],)), ValidationError, "treatment ['U'] is not a string"),
    (_bundle(treatments=("T", {"U": 1})), ValidationError, "treatment {'U': 1} is not a string"),
    (lambda: _manifest_from_dict(_manifest_doc(treatments="AB")), ParseError,
     "malformed manifest.json: TypeError('treatments must be a list, got str')"),
    (lambda: _manifest_from_dict(
        _manifest_doc(pending_decisions=[{"decision_id": "d9", "actions": "a"}])), ParseError,
     "malformed manifest.json: TypeError('pending decision actions must be a list, got str')"),
    (lambda: _manifest_from_dict(_manifest_doc(treatments=[["A"], "B"])), ParseError,
     "malformed manifest.json: TypeError('treatment must be a string, got list')"),
    (lambda: _manifest_from_dict(_manifest_doc(actions=[{"id": 1, "name": "One"}])), ParseError,
     "malformed manifest.json: TypeError('action id must be a string, got int')"),
    (lambda: _manifest_from_dict(
        _manifest_doc(pending_decisions=[{"decision_id": None, "actions": ["a"]}])), ParseError,
     "malformed manifest.json: TypeError('pending decision id must be a string, got NoneType')"),
    (lambda: _manifest_from_dict(
        _manifest_doc(pending_decisions=[{"decision_id": "d9", "actions": ["a", {}]}])), ParseError,
     "malformed manifest.json: TypeError('pending decision action must be a string, got dict')"),
    (lambda: _manifest_from_dict(_manifest_doc(domain={"type": MNK, "m": 3, "n": True, "k": 3})),
     ParseError, "malformed manifest.json: TypeError('board n must be an integer, got bool')"),
    (lambda: _manifest_from_dict(_manifest_doc(domain={"type": MNK, "m": 3.0, "n": 3, "k": 3})),
     ParseError, "malformed manifest.json: TypeError('board m must be an integer, got float')"),
    (partial(ParticipantModel, (0.5, -0.5)), ValidationError,
     "rank_probs must be non-negative finite numbers"),
    (partial(ParticipantModel, ()), ValidationError,
     "rank_probs must be non-negative finite numbers"),
    (partial(ParticipantModel, (0.0, 0.0)), ValidationError, "rank_probs must have positive mass"),
    (partial(SampleGroup, "g", (1.0, math.inf)), ValidationError,
     "group 'g' contains non-finite values"),
    (partial(GateResult, ANOVA, 1.0, (), 1.5), ValidationError, "p-value out of [0, 1]: 1.5"),
]


@pytest.mark.parametrize("build,exc,message", INVALID, ids=[m for _, _, m in INVALID])
def test_validation_errors_are_unchanged(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("rows, index, column", [
    ((RECORD, RECORD), 1, "participant_id"),
    ((RECORD, ("p1", "T", "d1", "b"), ("p1", "", "d1", "a")), 1, "participant_id"),
], ids=["same-record-twice", "duplicate-before-empty-treatment"])
def test_refused_prediction_is_tagged_with_its_own_index(rows, index, column):
    """A refused prediction's index is its own position, so a repeat is
    named, not the record it repeats."""
    with pytest.raises(ValidationError) as info:
        _bundle(rows=rows)()
    assert (info.value.index, info.value.column) == (index, column)


CONSTRUCTED = [case for case in INVALID if isinstance(case[0], partial)]


@pytest.mark.parametrize("build,exc,message", CONSTRUCTED, ids=[m for _, _, m in CONSTRUCTED])
@pytest.mark.parametrize("via", ["_replace", "_make"])
def test_replace_and_make_validate_like_the_constructor(build, exc, message, via):
    """A valid instance given every field of an invalid one is refused the same way."""
    cls = build.func
    fields = inspect.signature(cls).bind(*build.args, **build.keywords)
    fields.apply_defaults()
    valid = TYPES[cls][1]()
    with pytest.raises(exc) as info:
        if via == "_replace":
            valid._replace(**fields.arguments)
        else:
            cls._make(fields.arguments.values())
    assert type(info.value) is exc
    assert str(info.value) == message
