"""Property tests: bundle I/O round trips, str and bytes input read alike,
row numbers of refused records, the CLI on corrupted bundles, laws of the
scores and statistics, and the sampled oracle against a reference rollout.

Runs when hypothesis is installed (it is in the ``test`` extra) and is
skipped otherwise.  Examples are derandomized, so every run draws the same
cases.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bruteforce import reference_rollout_counts  # noqa: E402
from prediction_rows import predictions_of  # noqa: E402
from predscore.actions import SquareId  # noqa: E402
from predscore.board import (  # noqa: E402
    AGENT,
    ONGOING,
    OPPONENT,
    BoardConfig,
    apply_move,
    game_status,
    new_game,
)
from predscore import dataset  # noqa: E402
from predscore.cli import main  # noqa: E402
from predscore.dataset import (  # noqa: E402
    CUSTOM,
    OUTCOME_COLUMNS,
    PREDICTIONS_HEADER,
    VALUES_HEADER,
    ActionManifest,
    ExperimentBundle,
    parse_predictions_csv,
    parse_values_csv,
    read_bundle,
    serialize_predictions_csv,
    serialize_values_csv,
    write_bundle,
)
from predscore.errors import ParseError, PredscoreError  # noqa: E402
from predscore.metrics import (  # noqa: E402
    Predictions,
    av_score,
    loss_in_rank,
    loss_in_value,
    score_table,
    weighted_mean,
)
from predscore.oracle import _board_key, sampled_outcome_triples  # noqa: E402
from predscore.rankoverlap import mrbo_ext  # noqa: E402
from predscore.stats import kruskal_wallis  # noqa: E402
from predscore.values import DecisionValues, OutcomeTriple  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Ids built from characters that stress CSV quoting: the delimiter, the
# quote, spaces, both line-end characters and a non-ASCII letter.
IDS = st.text(st.sampled_from('ab,"\n\r é'), min_size=1, max_size=5)
VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def bundles(draw):
    actions = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    names = tuple((a, f"name {i}") for i, a in enumerate(actions))
    manifest = ActionManifest("exp", CUSTOM, names)
    ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    n_valued = draw(st.integers(1, len(ids)))
    decisions = []
    for decision_id in ids[:n_valued]:
        valued = draw(st.lists(st.sampled_from(actions), min_size=1, unique=True))
        entries = {a: draw(VALUES) for a in valued}
        outcomes = None
        if draw(st.booleans()):
            outcomes = {}
            for a in valued:
                win = draw(st.floats(0, 1))
                loss = draw(st.floats(0, 1 - win))
                outcomes[a] = OutcomeTriple(win, loss, 1.0 - win - loss)
        decisions.append(
            DecisionValues(decision_id, entries, draw(st.sampled_from(valued)), outcomes)
        )
    pending = tuple(
        (decision_id, tuple(draw(st.lists(st.sampled_from(actions), min_size=1, unique=True))))
        for decision_id in ids[n_valued:]
    )
    treatments = tuple(draw(st.lists(IDS, min_size=1, max_size=3, unique=True)))
    participants = draw(st.lists(IDS, max_size=6, unique=True))
    rows = []
    for participant in participants:
        for dv in decisions:
            if draw(st.booleans()):
                rows.append((
                    participant,
                    draw(st.sampled_from(treatments)),
                    dv.decision_id,
                    draw(st.sampled_from(dv.actions)),
                ))
    return ExperimentBundle(manifest, tuple(decisions), predictions_of(rows), treatments, pending)


@PROPERTY
@given(bundles())
def test_parse_inverts_serialize(bundle):
    assert tuple(parse_values_csv(serialize_values_csv(bundle.decisions).encode())) == (
        bundle.decisions
    )
    assert parse_predictions_csv(serialize_predictions_csv(bundle.predictions)) == (
        bundle.predictions
    )


@PROPERTY
@given(bundles())
def test_read_bundle_inverts_write_bundle(bundle):
    with tempfile.TemporaryDirectory() as tmp:
        assert read_bundle(write_bundle(bundle, Path(tmp) / "b")) == bundle


@PROPERTY
@given(bundles())
def test_read_bundle_reads_alike_with_no_cache_on_a_miss_and_on_a_hit(bundle):
    """The parse cache, used here for every size, changes no bundle read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bundle(bundle, Path(tmp) / "b")
        uncached = read_bundle(path)
        cache = Path(tmp) / "cache"
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(cache)), \
                mock.patch.object(dataset, "_CACHE_MIN_BYTES", 0):
            missed = read_bundle(path)
            [entry] = (cache / "predscore").iterdir()
            hit = read_bundle(path)
        assert uncached == missed == hit == bundle
        assert [list(map(type, c)) for c in hit.predictions.columns] == [
            [str] * len(bundle.predictions)] * 4


def _record_text(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


@PROPERTY
@given(st.data())
def test_refused_record_reports_its_start_line(data):
    """One corrupted record among blank lines and ids that span lines is
    refused, by the parser or by the bundle, naming the line it starts on."""
    values = DecisionValues("P1", {"A1": 1.0, "B1": 0.0}, "A1")
    base = ExperimentBundle(
        ActionManifest("exp", CUSTOM, (("A1", "A1"), ("B1", "B1"), ("C1", "C1"))),
        (values,),
        Predictions(),
        ("T",),
    )
    # Participant ids with line breaks make a record span several lines.
    participants = data.draw(
        st.lists(st.text(st.sampled_from("pq\n"), min_size=1, max_size=4), min_size=1,
                 max_size=8, unique=True)
    )
    bad = data.draw(st.integers(0, len(participants) - 1))
    # (the bad record's fields after its participant id, expected column)
    corruptions = [
        (["T", "P9", "A1"], "decision_id"),  # unknown decision: the bundle refuses it
        (["T", "P1", "Z9"], "predicted_action"),  # unknown action
        (["T", "P1", "C1"], "predicted_action"),  # in the manifest, not valued by P1
        (["U", "P1", "A1"], "treatment"),  # unlisted treatment
        (["", "P1", "A1"], "treatment"),  # empty treatment
        (["T", "P1"], None),  # three fields
    ]
    rest, column = data.draw(st.sampled_from(corruptions))
    duplicate = bad > 0 and data.draw(st.booleans())
    text = _record_text(PREDICTIONS_HEADER)
    for i, participant in enumerate(participants):
        text += "\n" * data.draw(st.integers(0, 2))
        fields = [participant, "T", "P1", "A1"]
        if i == bad:
            start = text.count("\n") + 1
            if duplicate:
                fields[0], column = participants[0], "participant_id"
            else:
                fields[1:] = rest
        text += _record_text(fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bundle(base, Path(tmp) / "b")
        (path / "predictions.csv").write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_bundle(path)
    assert err.value.row == start
    assert err.value.column == column


def _parsed(parse, data):
    """The records, or the refusal's message, row and column."""
    try:
        return parse(data)
    except ParseError as exc:
        return str(exc), exc.row, exc.column


# Whole records of either file, and fragments that stress CSV quoting.
CSV_LINES = st.lists(
    st.sampled_from(["P1,A1,1.0,1", "P1,B1,0.5,0", "p1,T,P1,A1", "p1,T,P2,B1", "", "\ufeff"])
    | st.text(st.sampled_from('ab1.,"\n\r\ufeff'), max_size=8),
    max_size=5,
)


@PROPERTY
@given(st.sampled_from([parse_values_csv, parse_predictions_csv]), st.integers(0, 2), CSV_LINES)
@example(parse_values_csv, 2, ["P1,A1,1.0,1"])
@example(parse_predictions_csv, 2, ["p1,T,P1,A1"])
def test_str_and_bytes_read_alike(parse, boms, lines):
    """A text and its UTF-8 bytes give equal records or the same refusal:
    each drops one leading BOM, so a second one is part of the header."""
    header = VALUES_HEADER if parse is parse_values_csv else PREDICTIONS_HEADER
    text = "\ufeff" * boms + "\n".join([",".join(header), *lines]) + "\n"
    assert _parsed(parse, text) == _parsed(parse, text.encode())


@PROPERTY
@given(st.data())
def test_refused_values_record_reports_its_start_line(data):
    """One corrupted values.csv record among blank lines and decision ids
    that span lines is refused, by the parser or by the bundle, naming the
    line it starts on."""
    base = ExperimentBundle(
        ActionManifest("exp", CUSTOM, (("A1", "A1"), ("B1", "B1"), ("C1", "C1"))),
        (DecisionValues("P1", {"A1": 1.0}, "A1"),),
        Predictions(),
        ("T",),
    )
    # Decision ids with line breaks make a record span several lines.
    decisions = data.draw(
        st.lists(st.text(st.sampled_from("PQ\n"), min_size=1, max_size=4), min_size=1,
                 max_size=5, unique=True)
    )
    bad = data.draw(st.integers(0, len(decisions) - 1))
    # Each decision has two records, A1 (chosen) and then B1: (which record
    # is corrupted, how, expected column).
    corruptions = [
        (1, lambda f: f[:-1], None),  # six fields
        (1, lambda f: ["", *f[1:]], None),  # empty decision id
        (1, lambda f: [f[0], "A1", *f[2:]], "action"),  # duplicate action
        (1, lambda f: [*f[:2], "high", *f[3:]], "value"),  # non-numeric value
        (1, lambda f: [*f[:2], "inf", *f[3:]], "value"),  # infinite value
        (1, lambda f: [*f[:2], "1_0", *f[3:]], "value"),  # float() takes it, the parser does not
        (1, lambda f: [*f[:2], " 2.5", *f[3:]], "value"),  # padded value
        (1, lambda f: [*f[:4], "0", "\u0661", "0"], "loss"),  # a non-ASCII digit
        (1, lambda f: [*f[:3], "2", *f[4:]], "chosen"),  # bad chosen flag
        (1, lambda f: [*f[:4], "0.5", "0.5", ""], "win"),  # partial triple
        (1, lambda f: [*f[:4], "0.6", "0.3", "0.2"], "win"),  # triple sums to 1.1
        (1, lambda f: [*f[:4], "1.5", "-0.5", "0"], "win"),  # sums to 1, out of [0, 1]
        (0, lambda f: [*f[:3], "0", *f[4:]], "chosen"),  # no chosen action: its first record
        (1, lambda f: [f[0], "Z9", *f[2:]], "action"),  # not in the manifest: a bundle refusal
    ]
    position, corrupt, column = data.draw(st.sampled_from(corruptions))
    text = _record_text(VALUES_HEADER + OUTCOME_COLUMNS)
    for i, decision_id in enumerate(decisions):
        for j, fields in enumerate([["A1", "1.0", "1"], ["B1", "0.0", "0"]]):
            text += "\n" * data.draw(st.integers(0, 2))
            fields = [decision_id, *fields, "", "", ""]
            if (i, j) == (bad, position):
                start = text.count("\n") + 1
                fields = corrupt(fields)
            text += _record_text(fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_bundle(base, Path(tmp) / "b")
        (path / "values.csv").write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_bundle(path)
    assert err.value.row == start
    assert err.value.column == column


@functools.cache
def _simulated_files(participants: int = 6) -> dict[str, bytes]:
    """The three files of a small simulated bundle, made through the CLI."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "b"
        argv = ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants",
                str(participants), "--treatments", "A,B", "--seed", "1", "--out-dir", str(out)]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}


def _json_slots(node):
    """(container, key) of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _json_slots(value)


JSON_VALUES = (0, 3, -1, 1.5, "", "x", [], ["A"], {}, {"id": "A1"}, None, True)
FIELD_TEXTS = st.text(st.sampled_from(list('aP1.-,"\n\r é')), max_size=6) | st.sampled_from(
    ["nan", "inf", "1e400", "-0", "0", "1", "2", "P1", "P9", "A1", "Z9", "B"]
)


def _with_p1_values(files: dict[str, bytes], chosen: str, others: str | None = None):
    """The files with decision P1's chosen value, and its other values if
    others is given, replaced: ("values.csv", files)."""
    lines = files["values.csv"].decode().split("\n")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == "P1":
            fields[2] = chosen if fields[3] == "1" else others or fields[2]
            lines[i] = ",".join(fields)
    return "values.csv", {**files, "values.csv": "\n".join(lines).encode()}


def _with_invalid_utf8(files: dict[str, bytes], name: str, at: int) -> dict[str, bytes]:
    """The files with a byte that is never valid UTF-8 put into file name."""
    return {**files, name: files[name][:at] + b"\xff" + files[name][at:]}


@st.composite
def corrupted_bundles(draw):
    """A simulated bundle with one change: a manifest.json value of another
    type, one CSV field, a duplicated CSV row, a truncated file or a byte
    that is not UTF-8.  Returns the name of the changed file and the files."""
    files = dict(_simulated_files())
    kinds = ["json_type", "csv_field", "duplicate_row", "truncate", "invalid_utf8"]
    kind = draw(st.sampled_from(kinds))
    if kind == "invalid_utf8":
        name = draw(st.sampled_from(sorted(files)))
        files = _with_invalid_utf8(files, name, draw(st.integers(0, len(files[name]))))
    elif kind == "json_type":
        name = "manifest.json"
        doc = json.loads(files[name])
        container, key = draw(st.sampled_from(list(_json_slots(doc))))
        old = container[key]
        container[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
        files[name] = json.dumps(doc).encode()
    elif kind == "truncate":
        name = draw(st.sampled_from(sorted(files)))
        files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
    else:
        name = draw(st.sampled_from(["values.csv", "predictions.csv"]))
        lines = files[name].decode().split("\n")[:-1]
        row = draw(st.integers(0, len(lines) - 1))
        if kind == "csv_field":
            fields = lines[row].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELD_TEXTS)
            lines[row] = ",".join(fields)
        else:
            lines.insert(draw(st.integers(1, len(lines))), lines[row])
        files[name] = "".join(line + "\n" for line in lines).encode()
    return name, files


COMMANDS = (
    ["metrics", "--format", "csv,markdown,svg"],
    ["stats", "--space", "value"],
    ["stats", "--space", "rank"],
    ["votes", "--decision", "P1", "--group-by", "treatment", "--format", "csv,svg"],
    ["grade"],
)


@PROPERTY
@given(corrupted_bundles())
@example(("manifest.json", _with_invalid_utf8(_simulated_files(), "manifest.json", 40)))
@example(_with_p1_values(_simulated_files(12), "1e308"))  # sums of losses overflow
@example(_with_p1_values(_simulated_files(12), "1e308", "-1e308"))  # and each loss
def test_cli_answers_a_corrupted_bundle_with_at_most_one_error_line(corruption):
    """Every command exits 0 or 1 with at most one "error:" line and no
    traceback; a bundle that read_bundle refuses is refused by every command
    with the same message, and a refused CSV change names its row.  Every
    loss of a bundle that read_bundle accepts is finite."""
    changed, files = corruption
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "b"
        bundle.mkdir()
        for name, data in files.items():
            (bundle / name).write_bytes(data)
        try:
            accepted = read_bundle(bundle)
            refusal = None
        except PredscoreError as exc:
            refusal = exc
        else:
            scores = score_table(accepted.values_by_decision())
            assert all(math.isfinite(lv) for table in scores.values() for lv, _, _ in table.values())
        if refusal is not None and changed.endswith(".csv"):
            assert getattr(refusal, "row", None) is not None, refusal
        for command in COMMANDS:
            argv = [command[0], "--bundle", str(bundle), "--out-dir", str(Path(tmp) / "r"),
                    *command[1:]]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            assert code in (0, 1), (argv, err)
            assert "Traceback" not in err
            assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err
            if refusal is not None:
                assert (code, err) == (1, f"error: {refusal}\n")


@PROPERTY
@given(st.dictionaries(IDS, VALUES, min_size=1, max_size=8), st.data())
def test_loss_in_rank_is_zero_only_for_the_chosen_action(entries, data):
    values = DecisionValues("d", entries, data.draw(st.sampled_from(sorted(entries))))
    predicted = data.draw(st.sampled_from(sorted(entries)))
    assert (loss_in_rank(values, predicted) == 0) == (predicted == values.chosen)


@PROPERTY
@given(st.dictionaries(IDS, VALUES, min_size=1, max_size=8), st.data())
def test_mean_from_vote_counts_is_fsum_of_the_votes_over_their_number(entries, data):
    """A mean-LV cell from a vote count equals fsum(list) / len(list) over
    one LV per vote, bit for bit; so does AV over one value per vote."""
    values = DecisionValues("d", entries, data.draw(st.sampled_from(sorted(entries))))
    votes = data.draw(st.dictionaries(st.sampled_from(sorted(entries)), st.integers(0, 40)))
    assume(sum(votes.values()) > 0)
    lvs = [loss_in_value(values, a) for a, n in votes.items() for _ in range(n)]
    cell = weighted_mean((loss_in_value(values, a), n) for a, n in votes.items())
    assert cell == math.fsum(lvs) / len(lvs)
    expanded = [values.value(a) for a, n in votes.items() for _ in range(n)]
    assert av_score(votes, values) == math.fsum(expanded) / len(expanded)


def test_mean_rounds_the_sum_and_then_the_quotient():
    """The exact rational mean, rounded once, is a different double here:
    LVs 0.05 (one vote) and 1.1 (two votes)."""
    pairs = [(0.05, 1), (1.1, 2)]
    assert weighted_mean(pairs) == math.fsum([0.05, 1.1, 1.1]) / 3 == 0.75
    assert float((Fraction(0.05) + 2 * Fraction(1.1)) / 3) == 0.7500000000000001


@PROPERTY
@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True),
    st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True),
    st.floats(0.01, 0.99),
)
def test_mrbo_is_in_the_unit_interval_and_one_for_a_prefix(s, t, p):
    assert 0.0 <= mrbo_ext(s, t, p) <= 1.0
    assert mrbo_ext(t[: len(s)], t, p) == 1.0
    assert mrbo_ext(s, s[: len(t)], p) == 1.0


@PROPERTY
@given(st.lists(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8), min_size=2,
                max_size=4))
def test_kruskal_wallis_h_is_invariant_under_increasing_maps(groups):
    assume(sum(map(len, groups)) >= 3)
    assume(len({v for g in groups for v in g}) > 1)
    # x**3 + 5x is strictly increasing and exact in floats on these integers.
    mapped = [[x**3 + 5 * x for x in g] for g in groups]
    assert kruskal_wallis(mapped) == kruskal_wallis(groups)


def _played(config, order, moves):
    """The board after the first moves squares of order, stopping before a
    move that would end the game."""
    board = new_game(config)
    for idx in order[:moves]:
        child = apply_move(board, SquareId(idx % config.m, idx // config.m))
        if game_status(child).state != ONGOING:
            break
        board = child
    return board


@st.composite
def rollout_positions(draw):
    """Ongoing positions on boards of up to 5x5, either side to move, with
    k = 1 and k = min(m, n) drawn as often as any other k."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.sampled_from([1, min(m, n), draw(st.integers(1, max(m, n)))]))
    order = draw(st.permutations(range(m * n)))
    return _played(BoardConfig(m, n, k), order, draw(st.integers(0, m * n - 1)))


@st.composite
def one_short_positions(draw):
    """Positions in which one side holds exactly k - 1 pieces (k >= 2): the
    agent after 2k - 3 or 2k - 2 moves, the opponent after 2k - 2 or 2k - 1."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(max(m, n) >= 2)
    k = draw(st.integers(2, max(m, n)))
    lengths = [t for t in (2 * k - 3, 2 * k - 2, 2 * k - 1) if t < m * n]
    assume(lengths)
    moves = draw(st.sampled_from(lengths))
    board = _played(BoardConfig(m, n, k), draw(st.permutations(range(m * n))), moves)
    assume(board.piece_count == moves)
    held = board.cells()
    assert k - 1 in (held.count(AGENT), held.count(OPPONENT))
    return board


def _assert_matches_reference(board, rollouts, seed, depth_limit):
    cfg = board.config
    codes = {None: 0, AGENT: 1, OPPONENT: 2}
    key = _board_key(board)

    def rng_for(idx):
        return random.Random(f"{seed}|{key}|{SquareId(idx % cfg.m, idx // cfg.m).text}")

    reference = reference_rollout_counts(
        cfg.m, cfg.n, cfg.k, tuple(codes[c] for c in board.cells()), codes[board.to_move],
        rollouts, rng_for, depth_limit,
    )
    triples = sampled_outcome_triples(board, rollouts, seed, depth_limit)
    assert {cfg.index(sq): t for sq, t in triples.items()} == {
        idx: tuple(c / rollouts for c in counts) for idx, counts in reference.items()
    }


ROLLOUT_ARGS = dict(
    rollouts=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    depth_limit=st.none() | st.integers(1, 6),
)


@PROPERTY
@given(board=rollout_positions(), **ROLLOUT_ARGS)
# depth 3 ends every rollout before either side can hold five pieces
@example(board=new_game(BoardConfig(5, 5, 5)), rollouts=4, seed=1, depth_limit=3)
def test_sampled_triples_match_the_reference_rollouts(board, rollouts, seed, depth_limit):
    _assert_matches_reference(board, rollouts, seed, depth_limit)


@PROPERTY
@given(board=one_short_positions(), **ROLLOUT_ARGS)
def test_sampled_triples_match_the_reference_one_piece_short_of_k(
    board, rollouts, seed, depth_limit
):
    _assert_matches_reference(board, rollouts, seed, depth_limit)
