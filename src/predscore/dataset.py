"""Bundle file formats, validation, and synthetic experiment generation.

An experiment bundle is a directory of three files:

  manifest.json     experiment id, domain tag, action list, treatments
                    (and ids of decisions still awaiting value data)
  values.csv        decision_id,action,value,chosen[,win,loss,draw]
                    one row per (decision, action); exactly one row per
                    decision has chosen=1; the outcome columns are optional
  predictions.csv   participant_id,treatment,decision_id,predicted_action

All numbers serialize as shortest round-trip decimals, and every writer is
deterministic, so identical bundles produce identical bytes.
:func:`csv_text` is the one CSV encoding: it writes both CSV files and
every report CSV but the one large report, samples.csv, which
:mod:`predscore.report` streams itself, line for line as csv_text would
write it.  write_bundle writes its three files through
``osutil.write_files``, all or none.

Each fact is checked in one layer.  The parsers check what a file says by
itself: header and field counts, and in values.csv numbers, duplicate keys
and chosen flags.  DecisionValues refuses an empty decision or action id;
parse_values_csv meets such a record before it can build one, and refuses
it there only to name its row.  Names are checked first, before any rule
hashes one, by the type that holds them: ActionManifest its experiment id,
action ids and action names, and ExperimentBundle its treatments, decision
ids and the action ids of its valued and pending decisions.  Each refuses
an id that is not a string, and a name that is not UTF-8 text (one holding
a lone surrogate), with one join per kind of name, so a bundle the library
builds always reads back.  An experiment id or an action name need not be
a string, but an action name must be hashable.  ExperimentBundle then
checks how the parts relate and every rule on a prediction: its
predictions are a Predictions, every decision's actions are in the
manifest, and every prediction has a participant and a treatment, names a
valued decision, an action it values and a listed treatment, and is its
participant's only one for that decision; a prediction on a pending
decision is refused as pending, not as unknown.  Its participant ids are known
only after that walk, so they are checked last; a prediction field that is
not a string is named where a lookup fails on it.  read_bundle adds the
row of a refused record.
A simulated design (agents, participants, treatment labels, decisions per
agent) is checked by ``check_synthetic_design`` alone, which both
generate_synthetic_experiment and ``predscore simulate`` call before any
game is played.

generate_synthetic_experiment plays the agents' games first, then samples
the participants in blocks of ``_PARTICIPANT_BLOCK`` consecutive ones,
mapped through ``osutil.fan_out``: on Linux one forked child on another
CPU takes blocks from the far end.  Each participant draws every decision
from its own ``random.Random(f"{seed}|participant|{participant_id}")``.  A
block returns its picks as rank indices, which the parent maps back through
each decision's ranked actions in participant order, so the bundle is the
same on one CPU or many.

All three files are decoded by ``_decode``: UTF-8, less one leading BOM;
bytes that are not UTF-8 are refused with the line of the first bad byte.
Both CSV files are read by one streaming record reader, ``_records``: it
refuses an empty file, an unexpected header or malformed CSV, and skips
blank lines.  The row of every refused record is the physical line on which
it starts, and ``_record_line`` is the only code that finds it: it reads the
text a second time, and only once a record is refused, so no parse loop
counts lines.

predictions.csv is the one large file.  Its parser fills the four columns
of a :class:`predscore.metrics.Predictions` in chunks of ``_CHUNK`` rows
and keeps nothing beside them but one dict interning every field string:
the predictions of a participant share one id string, and likewise for
treatments, decisions and actions.  generate_synthetic_experiment builds
the same columns without a parse.  ExperimentBundle walks the columns, and
finds a repeated (participant, decision) with one small integer per
participant, a bit per valued decision.  write_bundle, vote_counts, the
loss sums and samples.csv read the columns too.

A predictions.csv of at least ``_CACHE_MIN_BYTES`` (1 MiB) is parsed and
checked once per content, through :mod:`predscore.parsecache`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from bisect import bisect_right
from collections import Counter, namedtuple
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat
from operator import getitem
from pathlib import Path

from . import parsecache
from .actions import QUADRANTS, SquareId, canonical_key
from .board import ONGOING, BoardConfig, game_status, new_game, apply_move
from .errors import ParseError, Validated, ValidationError, finite_floats
from .metrics import Predictions, VoteCounts, vote_tally
from .oracle import AgentSpec, value_oracle
from .osutil import fan_out, write_files
from .values import DecisionValues, OutcomeTriple, ranked

MNK = "mnk"
FOUR_TOWERS = "four_towers"
CUSTOM = "custom"

VALUES_HEADER = ["decision_id", "action", "value", "chosen"]
OUTCOME_COLUMNS = ["win", "loss", "draw"]
PREDICTIONS_HEADER = ["participant_id", "treatment", "decision_id", "predicted_action"]
_VALUES_HEADERS = (VALUES_HEADER, VALUES_HEADER + OUTCOME_COLUMNS)

TRIPLE_CSV_TOLERANCE = 1e-6

# generate_synthetic_experiment hands participants to fan_out in blocks of
# this many.  One participant's seeding and draws cost ~17 us, so a block is
# ~35 ms of work, while a fan_out item costs ~17 us plus ~0.2 ms to pickle
# and unpickle a block of four decisions' picks: under 1% of the block.  The
# two processes then finish within one block of each other.
_PARTICIPANT_BLOCK = 2048

# parse_predictions_csv moves rows into its columns this many at a time.  A
# chunk of 1,024 rows holds ~0.3 MB of row lists; the columns grow by the
# list's over-allocation, so parsing 80k rows peaks at ~1.2 times what it
# keeps, where chunks of 4,096 rows and a final copy of the columns peak
# at ~1.9 times.
_CHUNK = 1024

# read_bundle caches the parse of a predictions.csv this large or larger: a
# 7.4 MB file parses in ~0.3 s and loads from its entry in ~0.03 s, while a
# README-sized one parses in milliseconds and would only pay for the hash.
_CACHE_MIN_BYTES = 1 << 20


class ActionManifest(Validated, namedtuple("ActionManifest", "experiment_id domain actions board")):
    """Names the actions of one experiment and tags its domain: actions are
    (action id, display name) pairs, and board is the BoardConfig of an mnk
    domain."""

    __slots__ = ()

    def __new__(
        cls,
        experiment_id: str,
        domain: str,
        actions: tuple[tuple[str, str], ...],
        board: BoardConfig | None = None,
    ):
        if domain not in (MNK, FOUR_TOWERS, CUSTOM):
            raise ValidationError(f"unknown domain tag {domain!r}")
        if not actions:
            raise ValidationError("manifest needs at least one action")
        ids = [a for a, _ in actions]
        names = [n for _, n in actions]
        # Each name is checked before a set hashes it.  manifest.json need
        # not hold a string for the experiment id or an action name.
        _refuse_unencodable("experiment id", [t for t in (experiment_id,) if isinstance(t, str)])
        _refuse_unencodable("action id", ids)
        _refuse_unencodable("action name", [n for n in names if isinstance(n, str)])
        for name in names:  # any hashable name is taken, so an unhashable one is named
            try:
                hash(name)
            except TypeError:
                raise ValidationError(f"action name {name!r} is not hashable") from None
        if len(set(ids)) != len(ids):
            raise ValidationError("manifest action ids must be unique")
        if len(set(names)) != len(names):
            raise ValidationError("manifest action names must be unique")
        if domain == MNK:
            if board is None:
                raise ValidationError("mnk manifest requires its board config")
            expected = [sq.text for sq in board.all_squares()]
            if ids != expected:
                raise ValidationError(
                    "mnk manifest must list every board square in canonical order"
                )
        return super().__new__(cls, experiment_id, domain, actions, board)

    @property
    def action_ids(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.actions)


def make_mnk_manifest(config: BoardConfig, experiment_id: str) -> ActionManifest:
    squares = [sq.text for sq in config.all_squares()]
    return ActionManifest(experiment_id, MNK, tuple((s, s) for s in squares), config)


def _refuse_repeated(treatments) -> None:
    repeated = [t for t, n in Counter(treatments).items() if n > 1]
    if repeated:
        raise ValidationError(f"treatment {repeated[0]!r} is listed more than once")


def _refuse_unencodable(kind: str, texts) -> None:
    """Refuse the first of texts that is not a string, or else the first
    that UTF-8 cannot encode: one holding a lone surrogate, which no file
    can hold.  One join checks all of them, so 100k participant ids cost
    about 2 ms."""
    try:
        joined = "".join(texts)
    except TypeError:  # the join names only the position of the first non-string
        text = next(t for t in texts if not isinstance(t, str))
        raise ValidationError(f"{kind} {text!r} is not a string") from None
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError as exc:  # the first text holding the first bad character
        text = next(t for t in texts if joined[exc.start] in t)
        raise ValidationError(f"{kind} {text!r} is not UTF-8") from None


class ExperimentBundle(
    Validated,
    namedtuple("ExperimentBundle", "manifest decisions predictions treatments pending_decisions"),
):
    """Everything one analysis needs: values, predictions, and naming.
    pending_decisions are the decisions that exist in the design but whose
    value tables are not yet supplied, as (decision id, action ids) pairs.

    predictions is a :class:`predscore.metrics.Predictions`, and nothing
    else is accepted.

    A ValidationError refusing a record carries ``column``, the CSV column at
    fault, and either ``index``, a prediction's position in ``predictions``,
    or ``key``, the (decision, action) of a values row."""

    __slots__ = ()

    def __new__(
        cls,
        manifest: ActionManifest,
        decisions: tuple[DecisionValues, ...],
        predictions: Predictions,
        treatments: tuple[str, ...],
        pending_decisions: tuple[tuple[str, tuple[str, ...]], ...] = (),
    ):
        if not isinstance(predictions, Predictions):
            raise ValidationError(
                f"predictions must be a Predictions, got {type(predictions).__name__}"
            )
        known_actions = set(manifest.action_ids)
        all_ids = [dv.decision_id for dv in decisions] + [did for did, _ in pending_decisions]
        # Each name is checked before any rule hashes it.  ActionManifest has
        # checked its own, and participant ids are known only after the loop.
        _refuse_unencodable("treatment", treatments)
        _refuse_unencodable("decision id", all_ids)
        _refuse_unencodable("action id", [a for dv in decisions for a in dv.entries]
                            + [a for _, actions in pending_decisions for a in actions])
        if len(set(all_ids)) != len(all_ids):
            raise ValidationError("duplicate decision ids in bundle")
        _refuse_repeated(treatments)
        listed = [(dv.decision_id, tuple(dv.entries)) for dv in decisions]
        for decision_id, actions in listed + list(pending_decisions):
            stray = set(actions) - known_actions
            if stray:
                error = ValidationError(
                    f"decision {decision_id!r} values actions missing from the manifest: "
                    f"{sorted(stray)}"
                )
                if (decision_id, actions) in listed:  # values.csv: tag its first stray row
                    error.key, error.column = (decision_id, min(stray, key=actions.index)), "action"
                raise error
            if len(set(actions)) != len(actions):
                raise ValidationError(f"decision {decision_id!r} lists an action more than once")
        # Every valued action is in the manifest, so manifest membership is
        # tested only to choose the message once a prediction is refused.
        valued = {dv.decision_id: dv.entries for dv in decisions}
        bits = {decision_id: 1 << i for i, decision_id in enumerate(valued)}
        treatment_set = set(treatments)
        predicted_by: dict[str, int] = {}  # participant id -> one bit per decision it predicts
        try:
            for index, (participant_id, treatment, decision_id, predicted) in enumerate(predictions):
                if not participant_id or not treatment:
                    column = "treatment" if participant_id else "participant_id"
                    message = f"{column} must be non-empty"
                elif (entries := valued.get(decision_id)) is None:
                    column = "decision_id"  # a declared decision that is not valued is pending
                    message = f"prediction by {participant_id!r} references " + (
                        f"decision {decision_id!r}, which is pending: it has no value table"
                        if decision_id in all_ids else f"unknown decision {decision_id!r}")
                elif predicted not in entries:
                    column = "predicted_action"
                    if predicted in known_actions:
                        message = (f"prediction by {participant_id!r} references action "
                                   f"{predicted!r}, which decision {decision_id!r} does not value")
                    else:
                        message = (f"prediction by {participant_id!r} references unknown action "
                                   f"{predicted!r}")
                elif treatment not in treatment_set:
                    column = "treatment"
                    message = f"prediction by {participant_id!r} has unlisted treatment {treatment!r}"
                elif (mask := predicted_by.get(participant_id, 0)) & (bit := bits[decision_id]):
                    column = "participant_id"
                    message = (f"duplicate prediction by {participant_id!r} for decision "
                               f"{decision_id!r}")
                else:
                    predicted_by[participant_id] = mask | bit
                    continue
                error = ValidationError(message)
                error.index, error.column = index, column
                raise error
        except TypeError:  # a field the checks could not look up: one that is not a string
            fields = zip(PREDICTIONS_HEADER, (participant_id, treatment, decision_id, predicted))
            column, field = next((c, f) for c, f in fields if not isinstance(f, str))
            error = ValidationError(f"{column.replace('_', ' ')} {field!r} is not a string")
            error.index, error.column = index, column
            raise error from None
        _refuse_unencodable("participant id", predicted_by)
        return super().__new__(cls, manifest, decisions, predictions, treatments, pending_decisions)

    def values_by_decision(self) -> dict[str, DecisionValues]:
        return {dv.decision_id: dv for dv in self.decisions}

    def vote_counts(self) -> VoteCounts:
        """(treatment, decision) -> {action: votes}, from one pass over the
        predictions.  Every listed treatment and valued decision has a cell,
        empty where nobody in that treatment predicted that decision."""
        counts = {(t, dv.decision_id): {} for t in self.treatments for dv in self.decisions}
        for (t, d, action), votes in vote_tally(self.predictions).items():
            counts[(t, d)][action] = votes
        return counts


def _decode(data) -> str:
    """The text of str or UTF-8 bytes, less one leading byte order mark.
    Bytes that are not UTF-8 are refused with the line of the first bad byte."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"input is not valid UTF-8: {exc}", row=row) from None
    return data.removeprefix("\ufeff")  # tolerate a spreadsheet-added BOM


def _record_line(text: str, index: int | None) -> int:
    """Physical line on which record ``index`` starts (the non-blank
    records after the header count from 0), or with ``index=None`` the line
    of the record the reader fails on.  A second pass over the text, taken
    only to report an error, so that the parse loops keep no line count.
    """
    reader = csv.reader(io.StringIO(text))
    start = 1
    remaining = math.inf if index is None else index + 1  # the header, then `index` records
    try:
        for row in reader:
            if row:
                if remaining == 0:
                    break
                remaining -= 1
            start = reader.line_num + 1
    except csv.Error:
        pass
    return start


def _refusal(data, index: int | None, message: str, column: str | None = None) -> ParseError:
    """A ParseError naming the line on which record ``index`` of ``data`` starts."""
    return ParseError(message, row=_record_line(_decode(data), index), column=column)


@contextmanager
def _records(data, name: str, headers):
    """Read CSV file ``name`` as (header, records): the header must be one
    of ``headers``, and records yields the non-blank records after it.
    Malformed CSV met inside the ``with`` block is refused with its row.

    Bytes stream through an incremental decoder after one up-front UTF-8
    check, so the whole text is never held as a line buffer; a str streams
    from memory.  Either way one leading BOM is dropped and only "\n" ends
    a line, so str and bytes read alike.
    """
    if isinstance(data, str):
        stream = io.StringIO(_decode(data))
    else:
        _decode(data)  # the UTF-8 check, with its message
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="\n")
    with stream:
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{name} is empty", row=1)
            if header not in headers:
                raise ParseError(f"unexpected {name} header {header!r}", row=1, column="header")
            yield header, filter(None, reader)
        except csv.Error as exc:
            raise _refusal(data, None, f"malformed {name}: {exc}") from None


# The number grammar of values.csv, which the CLI's number flags share: float()
# alone also takes "1_0", padding and non-ASCII digits.
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.IGNORECASE)


def _float_field(text: str, column: str, refuse) -> float:
    """An ASCII decimal literal as a finite float."""
    if DECIMAL.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    elif not NON_FINITE.fullmatch(text):
        raise refuse(f"non-numeric {column} {text!r}", column)
    raise refuse(f"{column} must be finite, got {text!r}", column)


def parse_values_csv(data) -> list[DecisionValues]:
    """Decode and validate values.csv; decisions come back in first-seen order."""
    entries: dict[str, dict[str, float]] = {}  # decision id -> its values, in first-seen order
    outcomes: dict[str, dict[str, OutcomeTriple]] = {}
    chosen: dict[str, str] = {}
    first: dict[str, int] = {}  # decision id -> index of its first record
    with _records(data, "values.csv", _VALUES_HEADERS) as (header, records):
        width = len(header)
        for index, row in enumerate(records):
            refuse = partial(_refusal, data, index)
            if len(row) != width:
                raise refuse(f"expected {width} fields, got {len(row)}")
            decision_id, action = row[0], row[1]
            if not decision_id or not action:
                raise refuse("decision_id and action must be non-empty")
            if decision_id not in entries:
                entries[decision_id], first[decision_id] = {}, index
            if action in entries[decision_id]:
                raise refuse(f"duplicate action {action!r} for decision {decision_id!r}", "action")
            entries[decision_id][action] = _float_field(row[2], "value", refuse)
            flag = row[3]
            if flag not in ("0", "1"):
                raise refuse(f"chosen flag must be 0 or 1, got {flag!r}", "chosen")
            if flag == "1":
                if decision_id in chosen:
                    raise refuse(f"decision {decision_id!r} has more than one chosen action", "chosen")
                chosen[decision_id] = action
            triple_fields = row[4:7]
            filled = [f for f in triple_fields if f != ""]
            if not filled:
                continue
            if len(filled) != 3:
                raise refuse("win/loss/draw must be given together or not at all", "win")
            win, loss, draw = (
                _float_field(f, col, refuse) for f, col in zip(triple_fields, OUTCOME_COLUMNS)
            )
            total = win + loss + draw
            if abs(total - 1.0) > TRIPLE_CSV_TOLERANCE:
                raise refuse(f"outcome triple sums to {total!r}, not 1", "win")
            if abs(total - 1.0) > 1e-9:
                win, loss, draw = win / total, loss / total, draw / total
            try:
                triple = OutcomeTriple(win, loss, draw)
            except ValidationError as exc:
                raise refuse(str(exc), "win") from None
            outcomes.setdefault(decision_id, {})[action] = triple
    decisions = []
    for decision_id, index in first.items():
        if decision_id not in chosen:
            raise _refusal(data, index, f"decision {decision_id!r} has no chosen action", "chosen")
        try:
            decisions.append(DecisionValues(decision_id, entries[decision_id], chosen[decision_id],
                                            outcomes.get(decision_id)))
        except ValidationError as exc:  # a value spread that is not finite
            raise _refusal(data, index, str(exc), "value") from None
    return decisions


def parse_predictions_csv(data) -> Predictions:
    """Decode predictions.csv into Predictions, checking only the header and
    four fields per record; ExperimentBundle checks what the fields say.
    Each field string is interned through one dict, so every prediction of
    a participant holds the same id string, and likewise for the other
    columns.  Records reach the columns a chunk of ``_CHUNK`` at a time.
    """
    interned: dict[str, str] = {}
    intern = interned.setdefault
    columns = ([], [], [], [])
    chunk = []
    with _records(data, "predictions.csv", (PREDICTIONS_HEADER,)) as (_, rows):
        while True:
            # a row without four fields is refused before the rows after it are read
            for row in islice(rows, _CHUNK):
                if len(row) != 4:
                    raise _refusal(data, len(columns[0]) + len(chunk),
                                   f"expected 4 fields, got {len(row)}")
                chunk.append(row)
            if not chunk:
                return Predictions(columns)
            for column, fields in zip(columns, zip(*chunk)):
                column.extend(map(intern, fields, fields))
            chunk.clear()


def csv_text(header: list[str], rows) -> str:
    """CSV text with "\n" line ends from rows that can be iterated twice:
    the package's one CSV encoding, used by the bundle files and every report
    file.  The csv module quotes a field that holds a comma, a quote or a
    "\n", but can leave a bare "\r" unquoted, and its reader refuses one
    outside quotes, so text holding one is written again with every field
    quoted."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)
        text = out.getvalue()
        if "\r" not in text:
            break
    return text


def serialize_values_csv(decisions) -> str:
    with_outcomes = any(dv.outcomes for dv in decisions)
    rows = []
    for dv in decisions:
        for action in sorted(dv.entries, key=canonical_key):
            row = [
                dv.decision_id,
                action,
                repr(dv.entries[action]),  # a value type holds floats only
                "1" if action == dv.chosen else "0",
            ]
            if with_outcomes:
                triple = (dv.outcomes or {}).get(action)
                row += ["", "", ""] if triple is None else map(repr, triple)
            rows.append(row)
    return csv_text(VALUES_HEADER + (OUTCOME_COLUMNS if with_outcomes else []), rows)


def serialize_predictions_csv(predictions: Predictions) -> str:
    """The text of predictions.csv."""
    return csv_text(PREDICTIONS_HEADER, predictions)


def manifest_to_dict(bundle: ExperimentBundle) -> dict:
    manifest = bundle.manifest
    domain = {"type": manifest.domain}
    if manifest.domain == MNK:
        domain.update(m=manifest.board.m, n=manifest.board.n, k=manifest.board.k)
    doc = {
        "experiment_id": manifest.experiment_id,
        "domain": domain,
        "actions": [{"id": a, "name": n} for a, n in manifest.actions],
        "treatments": list(bundle.treatments),
    }
    if bundle.pending_decisions:
        doc["pending_decisions"] = [
            {"decision_id": did, "actions": list(actions)}
            for did, actions in bundle.pending_decisions
        ]
    return doc


def _json_typed(value, kind: type, field: str):
    if type(value) is not kind:  # JSON true and false are bools, which isinstance counts as ints
        noun = {str: "a string", int: "an integer"}.get(kind, f"a {kind.__name__}")
        raise TypeError(f"{field} must be {noun}, got {type(value).__name__}")
    return value


def _manifest_from_dict(doc: dict):
    try:
        domain_doc = doc["domain"]
        domain = domain_doc["type"]
        board = None
        if domain == MNK:
            board = BoardConfig(*(_json_typed(domain_doc[d], int, f"board {d}") for d in "mnk"))
        manifest = ActionManifest(
            experiment_id=doc["experiment_id"],
            domain=domain,
            actions=tuple((_json_typed(a["id"], str, "action id"), a["name"]) for a in doc["actions"]),
            board=board,
        )
        treatments = tuple(
            _json_typed(t, str, "treatment") for t in _json_typed(doc["treatments"], list, "treatments")
        )
        pending = tuple(
            (_json_typed(p["decision_id"], str, "pending decision id"),
             tuple(_json_typed(a, str, "pending decision action")
                   for a in _json_typed(p["actions"], list, "pending decision actions")))
            for p in _json_typed(doc.get("pending_decisions", []), list, "pending_decisions")
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed manifest.json: {exc!r}") from None
    return manifest, treatments, pending


def write_bundle(bundle: ExperimentBundle, path) -> Path:
    write_files(path, {
        "manifest.json": json.dumps(manifest_to_dict(bundle), indent=2) + "\n",
        "values.csv": serialize_values_csv(bundle.decisions),
        "predictions.csv": serialize_predictions_csv(bundle.predictions),
    })
    return Path(path)


def read_bundle(path) -> ExperimentBundle:
    path = Path(path)
    for name in ("manifest.json", "values.csv", "predictions.csv"):
        if not (path / name).exists():
            raise ParseError(f"no {name} in {path}")
    manifest_json = (path / "manifest.json").read_bytes()
    try:
        doc = json.loads(_decode(manifest_json))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed manifest.json: {exc}") from None
    manifest, treatments, pending = _manifest_from_dict(doc)
    values = (path / "values.csv").read_bytes()
    decisions = tuple(parse_values_csv(values))
    data = (path / "predictions.csv").read_bytes()
    entry = (parsecache.entry((manifest_json, values, data)) if len(data) >= _CACHE_MIN_BYTES
             else None)
    if entry is not None and (predictions := parsecache.load(entry, decisions)) is not None:
        # The entry was written for these bytes once this code accepted them.
        return tuple.__new__(ExperimentBundle, (manifest, decisions, predictions, treatments, pending))
    predictions = parse_predictions_csv(data)
    try:
        bundle = ExperimentBundle(manifest, decisions, predictions, treatments, pending)
    except ValidationError as exc:
        column = getattr(exc, "column", None)  # set only on a refused record
        if column is None:
            raise
        if column == "action":  # a values.csv record, found by its (decision, action) key
            with _records(values, "values.csv", _VALUES_HEADERS) as (_, records):
                index = [row[:2] for row in records].index(list(exc.key))
            raise _refusal(values, index, str(exc), column) from None
        raise _refusal(data, exc.index, str(exc), column) from None
    del data  # released first, so that the cache's reductions and entry add nothing to the peak
    if entry is not None:
        parsecache.store(entry, bundle)
    return bundle


class ParticipantModel(Validated, namedtuple("ParticipantModel", "rank_probs")):
    """Rank-indexed categorical model of how a participant predicts.

    rank_probs[i] is the probability of predicting the agent's rank-(i+1)
    action; the vector is renormalized over the ranks actually available.
    None means uniform over all available actions.  The weights are floats,
    read by :func:`predscore.errors.finite_floats`, and their sum is finite,
    so that a draw can land on every rank.
    """

    __slots__ = ()

    def __new__(cls, rank_probs: tuple[float, ...] | None = None):
        if rank_probs is not None:
            refusal = "rank_probs must be non-negative finite numbers"
            rank_probs = finite_floats(rank_probs, "rank_probs", lambda _: refusal)
            if not rank_probs or min(rank_probs) < 0:
                raise ValidationError(refusal)
            if (total := sum(rank_probs)) <= 0:
                raise ValidationError("rank_probs must have positive mass")
            if not math.isfinite(total):  # every draw would land past the last rank
                raise ValidationError("rank_probs must have a finite sum")
        return super().__new__(cls, rank_probs)

    @classmethod
    def always_best(cls) -> "ParticipantModel":
        return cls(rank_probs=(1.0,))

    @classmethod
    def uniform(cls) -> "ParticipantModel":
        return cls(rank_probs=None)

    @classmethod
    def parse(cls, text: str) -> "ParticipantModel":
        """'best', 'uniform', or comma-separated rank weights, each an ASCII
        decimal literal as values.csv requires (no padding, no "1_0")."""
        if text == "best":
            return cls.always_best()
        if text == "uniform":
            return cls.uniform()
        weights = text.split(",")
        if not all(DECIMAL.fullmatch(w) for w in weights):
            raise ValidationError(
                f"behavior must be 'best', 'uniform' or comma-separated decimal weights, got {text!r}"
            )
        return cls(rank_probs=tuple(map(float, weights)))

    def _draw(self, values: DecisionValues):
        """One decision's sampler, rng -> the predicted action's index in
        values.actions (0 is the agent's best).  The pick is the first rank
        whose cumulative weight exceeds rng.random() * total, falling back
        to the last rank."""
        available = len(values.actions)
        if self.rank_probs is None:
            return lambda rng: rng.randrange(available)
        probs = self.rank_probs[:available]
        total = sum(probs)
        if total <= 0:
            raise ValidationError(
                f"participant model has no mass on the {available} available ranks"
            )
        cumulative = list(accumulate(probs))
        last = len(probs) - 1
        return lambda rng: min(bisect_right(cumulative, rng.random() * total), last)


def check_synthetic_design(agents, participants: int, treatments, decisions_per_agent: int) -> None:
    """Refuse a simulated design before any game is played.

    generate_synthetic_experiment and ``predscore simulate`` both check
    their design here, and nowhere else.
    """
    if participants < 1:
        raise ValidationError(f"participants must be >= 1, got {participants}")
    if not agents:
        raise ValidationError("need at least one agent spec")
    if not treatments:
        raise ValidationError("need at least one treatment label")
    # ExperimentBundle refuses a label that is not a string or holds a lone
    # surrogate (an argv byte that is not UTF-8) too, but only once the
    # games are played
    _refuse_unencodable("treatment", treatments)
    if "" in treatments:  # ExperimentBundle refuses a prediction in an empty treatment
        raise ValidationError("treatment labels must be non-empty")
    _refuse_repeated(treatments)
    if participants < len(treatments):
        # each treatment needs a participant, or metrics refuses the bundle
        raise ValidationError(
            f"participants must be at least the {len(treatments)} treatments, got {participants}"
        )
    if decisions_per_agent < 1:
        raise ValidationError(f"decisions_per_agent must be >= 1, got {decisions_per_agent}")
    for agent_index, agent in enumerate(agents):
        if not isinstance(agent, AgentSpec):
            raise ValidationError(f"agents[{agent_index}] is not an AgentSpec")


def generate_synthetic_experiment(
    config: BoardConfig,
    agents,
    participants: int,
    treatments,
    behavior: ParticipantModel,
    seed: int,
    decisions_per_agent: int = 4,
    experiment_id: str | None = None,
) -> ExperimentBundle:
    """Play seeded games and synthesize predictions for them.

    Each agent plays one game against a uniform-random opponent; the
    agent's first decisions_per_agent value tables become the bundle's
    decisions, numbered P1, P2, ... across agents.  Every participant then
    predicts each decision by sampling the behavior model.  All randomness
    derives from seed, so equal arguments give byte-identical bundles.
    """
    agents = list(agents)
    treatments = tuple(treatments)
    check_synthetic_design(agents, participants, treatments, decisions_per_agent)

    decisions: list[DecisionValues] = []
    for agent_index, agent in enumerate(agents):
        opponent_rng = random.Random(f"{seed}|opponent|{agent_index}")
        board = new_game(config)
        for _ in range(decisions_per_agent):
            if game_status(board).state != ONGOING:
                break
            dv = value_oracle(board, agent, decision_id=f"P{len(decisions) + 1}")
            decisions.append(dv)
            board = apply_move(board, SquareId.parse(dv.chosen))
            if game_status(board).state != ONGOING:
                break
            empties = board.empty_squares()
            board = apply_move(board, empties[opponent_rng.randrange(len(empties))])

    draws = [behavior._draw(dv) for dv in decisions]

    def block_picks(start: int) -> list[int]:
        """Rank indices for the block of participants from index start on,
        participant by participant and, within one, decision by decision."""
        picks = []
        for i in range(start, min(start + _PARTICIPANT_BLOCK, participants)):
            participant_rng = random.Random(f"{seed}|participant|p{i + 1:03d}")
            picks += [draw(participant_rng) for draw in draws]
        return picks

    # One prediction per (participant, decision), participant by participant:
    # the blocks' picks in order, each mapped back through its decision's
    # ranks.  The columns are built whole, and share the strings they repeat.
    ranks = chain.from_iterable(fan_out(block_picks, range(0, participants, _PARTICIPANT_BLOCK)))
    per_participant = len(decisions)
    participant_ids = (f"p{i + 1:03d}" for i in range(participants))
    columns = (
        list(chain.from_iterable(map(repeat, participant_ids, repeat(per_participant)))),
        list(chain.from_iterable(map(repeat, islice(cycle(treatments), participants),
                                     repeat(per_participant)))),
        [dv.decision_id for dv in decisions] * participants,
        list(map(getitem, cycle([dv.actions for dv in decisions]), ranks)),
    )
    return ExperimentBundle(
        manifest=make_mnk_manifest(
            config, experiment_id or f"synthetic-{config.m}x{config.n}k{config.k}-seed{seed}"
        ),
        decisions=tuple(decisions),
        predictions=Predictions(columns),
        treatments=treatments,
    )


# Known decision-point values for the four-quadrant tank domain: only the
# first decision's full table is public (in rank order 31, -28, -284, -313,
# all points within the published -366..53 range); which quadrant carried
# which value is not, so the assignment below is positional and the other
# thirteen decisions ship as pending until real tables are supplied.
FOUR_TOWERS_DP1_VALUES = (31.0, -28.0, -284.0, -313.0)
FOUR_TOWERS_VALUE_RANGE = (-366.0, 53.0)
FOUR_TOWERS_DECISIONS = tuple(f"DP{i}" for i in range(1, 15))
FOUR_TOWERS_TREATMENTS = ("NONE", "Saliency Maps", "Reward Bars", "Both")


def load_four_towers_fixture() -> ExperimentBundle:
    """Values-only bundle for the four-quadrant domain: DP1 populated,
    DP2..DP14 pending user-supplied value tables."""
    entries = dict(zip(QUADRANTS, FOUR_TOWERS_DP1_VALUES))
    dp1 = DecisionValues(
        decision_id="DP1",
        entries=entries,
        chosen=ranked(entries)[0],
    )
    manifest = ActionManifest(
        experiment_id="four-towers",
        domain=FOUR_TOWERS,
        actions=tuple((q, q) for q in QUADRANTS),
    )
    return ExperimentBundle(
        manifest=manifest,
        decisions=(dp1,),
        predictions=Predictions(),
        treatments=FOUR_TOWERS_TREATMENTS,
        pending_decisions=tuple((did, QUADRANTS) for did in FOUR_TOWERS_DECISIONS[1:]),
    )
