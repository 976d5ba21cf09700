"""Bundle file formats, validation, and synthetic experiment generation.

An experiment bundle is a directory of three files:

  manifest.json     experiment id, domain tag, action list, treatments
                    (and ids of decisions still awaiting value data)
  values.csv        decision_id,action,value,chosen[,win,loss,draw]
                    one row per (decision, action); exactly one row per
                    decision has chosen=1; the outcome columns are optional
  predictions.csv   participant_id,treatment,decision_id,predicted_action

All numbers serialize as shortest round-trip decimals, and every writer is
deterministic, so identical bundles produce identical bytes.  ``_csv_text``
is the one CSV encoding: it writes both CSV files and every report CSV, and
``_csv_lines`` streams its lines for the one large report, samples.csv.
``_write_files`` is the one function that writes a file: write_bundle and
every report command hand it all their texts at once, and it renames them
over their targets only once all are written, so a failure or an interrupt
leaves the old files, never a bundle that is half old and half new.

Each fact is checked in one layer.  The parsers check what a file says by
itself: header and field counts, and in values.csv numbers, duplicate keys
and chosen flags.  DecisionValues refuses an empty decision or action id;
parse_values_csv meets such a record before it can build one, and refuses
it there only to name its row.  ExperimentBundle checks how the parts
relate and every rule on a prediction: its predictions are a Predictions,
every decision's actions are in the manifest, and every prediction has a
participant and a treatment, names a valued decision, an action it values
and a listed treatment, and is its participant's only one for that
decision.  It also refuses any id that is not a string, and any string it
would write that is not UTF-8 text (one holding a lone surrogate), with
one join per kind of string, so a bundle the library builds always reads
back, and read_bundle adds the row of a refused record.
A simulated design (agents, participants, treatment labels, decisions per
agent) is checked by ``check_synthetic_design`` alone, which both
generate_synthetic_experiment and ``predscore simulate`` call before any
game is played.

generate_synthetic_experiment plays the agents' games first, then samples
the participants in blocks of ``_PARTICIPANT_BLOCK`` consecutive ones,
mapped through ``oracle._fan_out``: on Linux one forked child on another
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
participant, a bit per valued decision.  write_bundle, vote_counts and
samples.csv read the columns too.

A predictions.csv of at least ``_CACHE_MIN_BYTES`` (1 MiB) is parsed once
per content: read_bundle keeps its four columns as marshal data in the
user's cache directory, ``$XDG_CACHE_HOME/predscore`` or else
``~/.cache/predscore``, and a later read of the same bytes loads them
instead of parsing.  The cache replaces parse_predictions_csv and nothing
else: every read still runs ExperimentBundle's full check on the columns.
An entry's name is a SHA-256 over a format tag, ``sys.version``, the source
of this module and the bytes of predictions.csv, so an edit to the parser
or the file misses.  An entry holds each column as one marshal record and
ends with a SHA-256 of those records, checked on every load; an entry that
will not load is parsed again and rewritten.  Entries are read only from
that directory, never from a bundle or beside one, and only while the
directory is the effective user's and writable by no one else; any
``OSError`` there, or no home directory, means the file is parsed as it
is below the threshold, with no message.  An entry is written only for a
bundle ExperimentBundle accepts, after the file's bytes are released,
through ``_write_files``, and the newest ``_CACHE_ENTRIES`` entries by mtime
are kept; a hit refreshes its entry's mtime.
"""

from __future__ import annotations

import csv
import io
import json
import marshal
import math
import os
import random
import re
import sys
from bisect import bisect_right
from collections import Counter, namedtuple
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat
from operator import getitem
from pathlib import Path

from .actions import QUADRANTS, SquareId, canonical_key
from .board import ONGOING, BoardConfig, game_status, new_game, apply_move
from .errors import ParseError, Validated, ValidationError
from .metrics import Predictions, VoteCounts
from .oracle import AgentSpec, _fan_out, value_oracle
from .values import DecisionValues, OutcomeTriple, ranked

MNK = "mnk"
FOUR_TOWERS = "four_towers"
CUSTOM = "custom"

VALUES_HEADER = ["decision_id", "action", "value", "chosen"]
OUTCOME_COLUMNS = ["win", "loss", "draw"]
PREDICTIONS_HEADER = ["participant_id", "treatment", "decision_id", "predicted_action"]
_VALUES_HEADERS = (VALUES_HEADER, VALUES_HEADER + OUTCOME_COLUMNS)

TRIPLE_CSV_TOLERANCE = 1e-6

# generate_synthetic_experiment hands participants to _fan_out in blocks of
# this many.  One participant's seeding and draws cost ~17 us, so a block is
# ~35 ms of work, while a _fan_out item costs ~17 us plus ~0.2 ms to pickle
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
_CACHE_ENTRIES = 8
_CACHE_TAG = b"predscore predictions columns 1"
_CACHE_SUFFIX = ".columns"
_DIGEST_BYTES = 32


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
    try:
        counts = Counter(treatments)
    except TypeError:  # an unhashable label, which is not a string
        _refuse_unencodable("treatment", treatments)
        raise
    repeated = [t for t, n in counts.items() if n > 1]
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
                    column = "decision_id"
                    message = (f"prediction by {participant_id!r} references unknown decision "
                               f"{decision_id!r}")
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
        # Every other string the files hold is one of these.  manifest.json
        # need not hold a string for the experiment id or an action name.
        for kind, texts in (
            ("experiment id", [t for t in (manifest.experiment_id,) if isinstance(t, str)]),
            ("action id", manifest.action_ids),
            ("action name", [n for _, n in manifest.actions if isinstance(n, str)]),
            ("treatment", treatments),
            ("decision id", all_ids),
            ("participant id", predicted_by),
        ):
            _refuse_unencodable(kind, texts)
        return super().__new__(cls, manifest, decisions, predictions, treatments, pending_decisions)

    def values_by_decision(self) -> dict[str, DecisionValues]:
        return {dv.decision_id: dv for dv in self.decisions}

    def vote_counts(self) -> VoteCounts:
        """(treatment, decision) -> {action: votes}, from one pass over the
        predictions.  Every listed treatment and valued decision has a cell,
        empty where nobody in that treatment predicted that decision."""
        counts = {(t, dv.decision_id): {} for t in self.treatments for dv in self.decisions}
        _, treatments, decision_ids, predicted = self.predictions.columns
        for (t, d, action), votes in Counter(zip(treatments, decision_ids, predicted)).items():
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


# float() alone also takes "1_0", padding and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_NON_FINITE = re.compile(r"[+-]?(inf|infinity|nan)", re.IGNORECASE)


def _float_field(text: str, column: str, refuse) -> float:
    """An ASCII decimal literal as a finite float."""
    if _DECIMAL.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    elif not _NON_FINITE.fullmatch(text):
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


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_writer(out, quote_all: bool):
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    return csv.writer(out, lineterminator="\n", quoting=quoting)


def _csv_text(header: list[str], rows) -> str:
    """CSV text with "\n" line ends from rows that can be iterated twice:
    the package's one CSV encoding, used by the bundle files and every report
    file.  The csv module quotes a field that holds a comma, a quote or a
    "\n", but can leave a bare "\r" unquoted, and its reader refuses one
    outside quotes, so text holding one is written again with every field
    quoted."""
    for quote_all in (False, True):
        out = io.StringIO()
        writer = _csv_writer(out, quote_all)
        writer.writerow(header)
        writer.writerows(rows)
        text = out.getvalue()
        if "\r" not in text:
            break
    return text


class _Lines(list):
    """A list for a csv writer to write to: each row it writes is one item."""

    __slots__ = ()
    write = list.append


def _csv_lines(header: list[str], columns, order, tails: dict):
    """The text of ``_csv_text(header, rows)``, a line at a time, where row
    i is ``(a[i], b[i], c[i], d[i], *tails[c[i]][d[i]])`` for the four
    string columns ``a, b, c, d`` and each position i of ``order``: the
    columns of Predictions keyed into a score table.

    No csv writer call and no row tuple is made per row.  One writer pass
    renders the header, each distinct string of the first two columns, and
    each tail from its two keys on; each line is then three lookups.  If
    that text holds a "\r", the rows go to _csv_text itself, so whether
    every field is quoted follows from the fields that its text holds.
    """
    first, second, third, fourth = columns
    leading = list(set(first).union(second))
    lines = _Lines()
    _csv_writer(lines, False).writerows(chain(
        (header,),
        # a second, empty field keeps an empty one from being written as a lone '""'
        zip(leading, repeat("")),
        ((k, j, *fields) for k, table in tails.items() for j, fields in table.items()),
    ))
    if "\r" in "".join(lines):
        return (_csv_text(header, [(first[i], second[i], third[i], fourth[i],
                                    *tails[third[i]][fourth[i]]) for i in order]),)
    it = iter(lines)
    head = next(it)
    cells = {field: next(it).rpartition(",")[0] for field in leading}
    rendered = {k: {j: next(it) for j in table} for k, table in tails.items()}
    return chain((head,), (f"{cells[first[i]]},{cells[second[i]]},{rendered[third[i]][fourth[i]]}"
                           for i in order))


def serialize_values_csv(decisions) -> str:
    with_outcomes = any(dv.outcomes for dv in decisions)
    rows = []
    for dv in decisions:
        for action in sorted(dv.entries, key=canonical_key):
            row = [
                dv.decision_id,
                action,
                _fmt(dv.entries[action]),
                "1" if action == dv.chosen else "0",
            ]
            if with_outcomes:
                triple = (dv.outcomes or {}).get(action)
                if triple is None:
                    row += ["", "", ""]
                else:
                    row += [_fmt(triple.win), _fmt(triple.loss), _fmt(triple.draw)]
            rows.append(row)
    return _csv_text(VALUES_HEADER + (OUTCOME_COLUMNS if with_outcomes else []), rows)


def serialize_predictions_csv(predictions: Predictions) -> str:
    """The text of predictions.csv."""
    return _csv_text(PREDICTIONS_HEADER, predictions)


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


def _write_files(directory, texts: dict) -> list[Path]:
    """Write each text, a string or an iterable of strings, to its file name
    in directory as UTF-8, and return the paths written, in order.  A text
    of bytes, or an iterable whose first item is bytes, is written as it is.

    Every text goes to ``.<name>.<pid>.tmp`` in directory, and the files are
    renamed over their targets only once all of them are written, so an error
    while any text is made leaves every target as it was.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    staged = {}
    try:
        for name, text in texts.items():
            staged[name] = directory / f".{name}.{os.getpid()}.tmp"
            pieces = iter([text] if isinstance(text, (str, bytes)) else text)
            first = next(pieces, "")
            binary = isinstance(first, bytes)
            with open(staged[name], "wb" if binary else "w",
                      encoding=None if binary else "utf-8") as fh:
                fh.write(first)
                fh.writelines(pieces)
        for name, temporary in staged.items():
            os.replace(temporary, directory / name)
    except BaseException:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise
    return [directory / name for name in texts]


def write_bundle(bundle: ExperimentBundle, path) -> Path:
    path = Path(path)
    _write_files(path, {
        "manifest.json": json.dumps(manifest_to_dict(bundle), indent=2) + "\n",
        "values.csv": serialize_values_csv(bundle.decisions),
        "predictions.csv": serialize_predictions_csv(bundle.predictions),
    })
    return path


def read_bundle(path) -> ExperimentBundle:
    path = Path(path)
    for name in ("manifest.json", "values.csv", "predictions.csv"):
        if not (path / name).exists():
            raise ParseError(f"no {name} in {path}")
    try:
        doc = json.loads(_decode((path / "manifest.json").read_bytes()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed manifest.json: {exc}") from None
    manifest, treatments, pending = _manifest_from_dict(doc)
    values = (path / "values.csv").read_bytes()
    decisions = parse_values_csv(values)
    data = (path / "predictions.csv").read_bytes()
    entry = _cache_entry(data) if len(data) >= _CACHE_MIN_BYTES else None
    cached = None if entry is None else _load_entry(entry)
    predictions = parse_predictions_csv(data) if cached is None else cached
    try:
        bundle = ExperimentBundle(manifest, tuple(decisions), predictions, treatments, pending)
    except ValidationError as exc:
        column = getattr(exc, "column", None)  # set only on a refused record
        if column is None:
            raise
        if column == "action":  # a values.csv record, found by its (decision, action) key
            with _records(values, "values.csv", _VALUES_HEADERS) as (_, records):
                index = [row[:2] for row in records].index(list(exc.key))
            raise _refusal(values, index, str(exc), column) from None
        raise _refusal(data, exc.index, str(exc), column) from None
    del data  # released first, so that writing the entry adds nothing to the peak
    if entry is not None and cached is None:
        _store_entry(entry, predictions.columns)
    return bundle


def _sha256(data=b""):
    """A SHA-256 hash object.  The interpreter's own implementation comes
    first, as in the random module: hashlib loads OpenSSL's libcrypto, which
    adds ~3.7 MB to the peak RSS of a command that reads the bundle."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def _cache_entry(data: bytes) -> Path | None:
    """The path of the cache entry for predictions.csv bytes ``data``, or
    None where no cache directory can be used: there is no home directory,
    the directory cannot be made, or it is not the effective user's alone."""
    try:
        base = os.environ.get("XDG_CACHE_HOME")
        directory = (Path(base) if base and os.path.isabs(base)
                     else Path.home() / ".cache") / "predscore"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
        source = Path(__file__).read_bytes()
    except (OSError, RuntimeError):  # Path.home() raises RuntimeError when there is no home
        return None
    # anyone else who could write here could hand us marshal data
    if info.st_uid != os.geteuid() or info.st_mode & 0o022:
        return None
    key = _sha256()
    for part in (_CACHE_TAG, sys.version.encode(), source, data):
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return directory / f"{key.hexdigest()}{_CACHE_SUFFIX}"


def _load_entry(entry: Path) -> Predictions | None:
    """The Predictions stored at entry, refreshing its mtime, or None if it
    is missing, unreadable, fails its digest or is not four columns of one
    length."""
    try:
        blob = entry.read_bytes()
        os.utime(entry)
    except OSError:
        return None
    body = memoryview(blob)[:-_DIGEST_BYTES]
    if _sha256(body).digest() != blob[-_DIGEST_BYTES:]:
        return None
    columns, offset = [], 0
    try:
        while offset < len(body):
            size = int.from_bytes(body[offset:offset + 8], "little")
            offset += 8
            columns.append(marshal.loads(body[offset:offset + size]))
            offset += size
        return Predictions(columns)
    except (EOFError, ValueError, TypeError, ValidationError):
        return None


def _store_entry(entry: Path, columns) -> None:
    """Write columns to entry, then keep the newest _CACHE_ENTRIES entries.
    Each column is one length-prefixed marshal record, made only as the
    writer reaches it, and a SHA-256 of the records ends the entry."""
    def pieces():
        digest = _sha256()
        for column in columns:
            record = marshal.dumps(column)
            for piece in (len(record).to_bytes(8, "little"), record):
                digest.update(piece)
                yield piece
        yield digest.digest()

    try:
        _write_files(entry.parent, {entry.name: pieces()})
        entries = sorted(entry.parent.glob(f"*{_CACHE_SUFFIX}"),
                         key=lambda p: p.stat().st_mtime_ns, reverse=True)
        for stale in entries[_CACHE_ENTRIES:]:
            stale.unlink(missing_ok=True)
    except OSError:
        pass


class ParticipantModel(Validated, namedtuple("ParticipantModel", "rank_probs")):
    """Rank-indexed categorical model of how a participant predicts.

    rank_probs[i] is the probability of predicting the agent's rank-(i+1)
    action; the vector is renormalized over the ranks actually available.
    None means uniform over all available actions.
    """

    __slots__ = ()

    def __new__(cls, rank_probs: tuple[float, ...] | None = None):
        if rank_probs is not None:
            rank_probs = tuple(float(p) for p in rank_probs)
            if not rank_probs or any(p < 0 or not math.isfinite(p) for p in rank_probs):
                raise ValidationError("rank_probs must be non-negative finite numbers")
            if sum(rank_probs) <= 0:
                raise ValidationError("rank_probs must have positive mass")
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
        if not all(_DECIMAL.fullmatch(w) for w in weights):
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
    for treatment in treatments:  # manifest.json must read each label back as a string
        if not isinstance(treatment, str):
            raise ValidationError(f"treatment {treatment!r} is not a string")
        if not treatment:  # ExperimentBundle refuses a prediction in an empty treatment
            raise ValidationError("treatment labels must be non-empty")
    # ExperimentBundle refuses a lone surrogate (an argv byte that is not
    # UTF-8) too, but only once the games are played
    _refuse_unencodable("treatment", treatments)
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
    ranks = chain.from_iterable(_fan_out(block_picks, range(0, participants, _PARTICIPANT_BLOCK)))
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
