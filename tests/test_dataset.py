import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from prediction_rows import predictions_of
from predscore.actions import QUADRANTS
from predscore import dataset
from predscore.board import BoardConfig
from predscore.dataset import (
    FOUR_TOWERS_VALUE_RANGE,
    ActionManifest,
    ExperimentBundle,
    ParticipantModel,
    csv_text,
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
from predscore.errors import ParseError, ValidationError
from predscore.metrics import Predictions, score_dataset
from predscore.oracle import AgentSpec, Mutation
from predscore.rankoverlap import agent_ranklist, mrbo_ext, vote_ranklist
from predscore.report import SAMPLES_HEADER, render_samples_csv
from predscore.values import DecisionValues, OutcomeTriple

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def random_bundle(seed, with_outcomes=False):
    rng = random.Random(seed)
    action_ids = [f"act{i}" for i in range(rng.randint(2, 8))]
    manifest = ActionManifest(
        experiment_id=f"exp{seed}",
        domain="custom",
        actions=tuple((a, f"Action {a}") for a in action_ids),
    )
    decisions = []
    for d in range(rng.randint(1, 4)):
        entries = {a: rng.uniform(-2, 2) for a in action_ids}
        outcomes = None
        if with_outcomes:
            outcomes = {}
            for a in action_ids:
                win = rng.uniform(0, 1)
                loss = rng.uniform(0, 1 - win)
                outcomes[a] = OutcomeTriple(win, loss, 1.0 - win - loss)
        decisions.append(
            DecisionValues(
                decision_id=f"P{d + 1}",
                entries=entries,
                chosen=max(entries, key=entries.get),
                outcomes=outcomes,
            )
        )
    treatments = tuple(f"T{i}" for i in range(rng.randint(1, 3)))
    predictions = predictions_of(
        (f"p{i:03d}", treatments[i % len(treatments)], rng.choice(decisions).decision_id,
         rng.choice(action_ids))
        for i in range(rng.randint(0, 12))
    )
    return ExperimentBundle(
        manifest=manifest,
        decisions=tuple(decisions),
        predictions=predictions,
        treatments=treatments,
    )


class TestCsvRoundTrip:
    def test_values_round_trip(self):
        for seed in range(25):
            bundle = random_bundle(seed, with_outcomes=seed % 2 == 0)
            parsed = parse_values_csv(serialize_values_csv(bundle.decisions).encode())
            assert tuple(parsed) == bundle.decisions

    def test_predictions_round_trip(self):
        for seed in range(25):
            bundle = random_bundle(seed)
            text = serialize_predictions_csv(bundle.predictions)
            parsed = parse_predictions_csv(text.encode())
            assert parsed == bundle.predictions

    def test_bundle_directory_round_trip(self, tmp_path):
        for seed in range(8):
            bundle = random_bundle(seed, with_outcomes=True)
            path = write_bundle(bundle, tmp_path / f"b{seed}")
            assert read_bundle(path) == bundle

    def test_serialization_is_deterministic(self, tmp_path):
        bundle = random_bundle(3, with_outcomes=True)
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_bundle(bundle, a)
        write_bundle(bundle, b)
        for name in ("manifest.json", "values.csv", "predictions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("text", ["", "x,y", 'x"y', "x\ny", "x\ry"])
    def test_streamed_lines_equal_the_csv_text(self, field, text):
        """render_samples_csv renders as csv_text, in (participant,
        decision) order whatever the input order, whichever one field of a
        row (one of its four, or the grade of its score) holds a character
        that is quoted, or empties it."""
        rows = [["P1", "A", "D1", "NE"], ["P2", "B", "D1", "SW"], ["P1", "A", "D2", "NE"]]
        if field < 4:
            rows[1][field] = text
        scores = {}
        for _, _, decision, action in rows:
            scores.setdefault(decision, {})[action] = (-1.5, 0.25, "good")
        if field == 4:
            scores["D1"]["SW"] = (-1.5, 0.25, text)
        for order in (range(3), (2, 0, 1)):
            records = [rows[i] for i in order]
            walked = sorted(records, key=lambda row: (row[0], row[2]))
            expected = csv_text(SAMPLES_HEADER, [(*row, *scores[row[2]][row[3]]) for row in walked])
            assert "".join(render_samples_csv(predictions_of(records), scores)) == expected

    def test_a_tail_no_row_uses_leaves_the_fields_unquoted(self):
        """As in csv_text, only the fields that the text holds decide
        whether every field is quoted: a "\r" in the grade or in the id of
        an action that no prediction names quotes nothing."""
        expected = csv_text(SAMPLES_HEADER, [("P1", "A", "D1", "NE", -1.5, 0.25, "good")])
        for action, grade in (("SW", "x\ry"), ("S\rW", "good")):
            scores = {"D1": {"NE": (-1.5, 0.25, "good"), action: (0.0, 0, grade)}}
            text = "".join(render_samples_csv(predictions_of([("P1", "A", "D1", "NE")]), scores))
            assert text == expected
            assert '"' not in text


class TestBundleWrites:
    """write_bundle renames its three files over the old ones only once all
    of them are written."""

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_crash_after_the_first_file_leaves_the_old_bundle(self, tmp_path, monkeypatch, error):
        path = write_bundle(random_bundle(1), tmp_path / "b")
        old = {p.name: p.read_bytes() for p in path.iterdir()}

        def header_then_crash(predictions):
            yield ",".join(dataset.PREDICTIONS_HEADER) + "\n"
            raise error("interrupted")

        monkeypatch.setattr(dataset, "serialize_predictions_csv", header_then_crash)
        with pytest.raises(error, match="interrupted"):
            write_bundle(random_bundle(2), path)
        assert {p.name: p.read_bytes() for p in path.iterdir()} == old  # and no .tmp file

    def test_a_rewrite_replaces_every_file_and_leaves_nothing_else(self, tmp_path):
        path = write_bundle(random_bundle(1), tmp_path / "b")
        assert write_bundle(random_bundle(2), path) == path
        assert sorted(p.name for p in path.iterdir()) == [
            "manifest.json", "predictions.csv", "values.csv"]
        assert read_bundle(path) == random_bundle(2)

    def test_a_json_escaped_lone_surrogate_is_refused_on_read(self, tmp_path):
        """manifest.json can spell a string that no CSV file can hold."""
        path = write_bundle(random_bundle(1), tmp_path / "b")
        doc = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        doc["experiment_id"] = "exp\udcff"
        (path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_bundle(path)
        assert str(info.value) == "experiment id 'exp\\udcff' is not UTF-8"

    def test_an_action_name_that_is_a_json_list_is_named_on_read(self, tmp_path):
        """An action name need not be a string, but a set must hash it."""
        path = write_bundle(random_bundle(1), tmp_path / "b")
        doc = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        doc["actions"][0]["name"] = ["x"]
        (path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_bundle(path)
        assert type(info.value) is ValidationError
        assert str(info.value) == "action name ['x'] is not hashable"
        doc["actions"][0]["name"] = 5  # a hashable name that is not a string reads as before
        (path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        assert read_bundle(path).manifest.actions[0][1] == 5


VALUES_4T = """decision_id,action,value,chosen
DP1,NE,31.0,1
DP1,NW,-28.0,0
DP1,SE,-284.0,0
DP1,SW,-313.0,0
"""


class TestParseValues:
    def test_four_towers_rows(self):
        decisions = parse_values_csv(VALUES_4T.encode())
        assert len(decisions) == 1
        dv = decisions[0]
        assert len(dv.entries) == 4
        assert dv.chosen == "NE"
        assert dv.value("NE") == 31.0

    def test_shape_many_decisions(self):
        bundle = generate_small()
        text = serialize_values_csv(bundle.decisions)
        parsed = parse_values_csv(text)
        assert len(parsed) == len(bundle.decisions) == 3
        # two pieces land between successive decisions of a 3x3 game
        assert [len(dv.entries) for dv in parsed] == [9, 7, 5]

    def test_double_chosen_rejected(self):
        bad = VALUES_4T.replace("DP1,NW,-28.0,0", "DP1,NW,-28.0,1")
        with pytest.raises(ParseError) as err:
            parse_values_csv(bad)
        assert err.value.row == 3
        assert err.value.column == "chosen"

    def test_no_chosen_rejected(self):
        bad = VALUES_4T.replace("DP1,NE,31.0,1", "DP1,NE,31.0,0")
        with pytest.raises(ParseError):
            parse_values_csv(bad)

    def test_duplicate_action_rejected(self):
        bad = VALUES_4T + "DP1,NE,31.0,0\n"
        with pytest.raises(ParseError) as err:
            parse_values_csv(bad)
        assert err.value.row == 6

    def test_non_numeric_value_rejected(self):
        bad = VALUES_4T.replace("31.0", "high")
        with pytest.raises(ParseError) as err:
            parse_values_csv(bad)
        assert err.value.column == "value"

    @pytest.mark.parametrize("text, value", [
        ("1.", 1.0), (".5", 0.5), ("+3E-2", 0.03), ("-0", 0.0), ("007", 7.0),
    ])
    def test_ascii_decimal_literal_accepted(self, text, value):
        decisions = parse_values_csv(VALUES_4T.replace("31.0", text))
        assert decisions[0].value("NE") == value

    @pytest.mark.parametrize("text, message", [
        ("1_0", "non-numeric value '1_0'"),
        (" 2.5", "non-numeric value ' 2.5'"),
        ("\u0661\u0662", "non-numeric value '\u0661\u0662'"),
        ("0x1", "non-numeric value '0x1'"),
        ("nan", "value must be finite, got 'nan'"),
        ("-Infinity", "value must be finite, got '-Infinity'"),
        ("1e999", "value must be finite, got '1e999'"),
    ])
    def test_value_that_is_no_finite_ascii_decimal_rejected(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_values_csv(VALUES_4T.replace("31.0", text))
        assert (err.value.row, err.value.column) == (2, "value")

    def test_value_spread_that_is_not_finite_rejected_at_the_decisions_first_row(self):
        text = VALUES_4T.replace("31.0", "1e308").replace("-313.0", "-1e308")
        with pytest.raises(ParseError, match="decision 'DP1': value spread from -1e[+]308 to "
                                             "1e[+]308 is not finite") as err:
            parse_values_csv(text)
        assert (err.value.row, err.value.column) == (2, "value")
        parse_values_csv(VALUES_4T.replace("31.0", "1e308"))  # a finite spread is read

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_values_csv(b"foo,bar\n1,2\n")

    def test_triple_sum_enforced(self):
        text = (
            "decision_id,action,value,chosen,win,loss,draw\n"
            "d,x,0.5,1,0.6,0.3,0.2\n"
            "d,y,0.1,0,,,\n"
        )
        with pytest.raises(ParseError) as err:
            parse_values_csv(text)
        assert err.value.row == 2

    def test_partial_triple_rejected(self):
        text = (
            "decision_id,action,value,chosen,win,loss,draw\n"
            "d,x,0.5,1,0.6,0.4,\n"
        )
        with pytest.raises(ParseError):
            parse_values_csv(text)

    def test_oversized_field_is_a_parse_error(self):
        text = (
            "decision_id,action,value,chosen\n"
            "P1,a,1.0,1\n"
            "P1,b,0.5,0\n"
            'P1,"' + "x" * 200_000 + '",0.0,0\n'
        )
        with pytest.raises(ParseError, match="malformed values.csv") as err:
            parse_values_csv(text)
        assert err.value.row == 4

    @pytest.mark.parametrize(
        "bad_record, column",
        [("P1,b,high,0", "value"), ('P1,"' + "x" * 200_000 + '",0.0,0', None)],
        ids=["invalid_field", "oversized_field"],
    )
    def test_row_is_line_where_record_starts(self, bad_record, column):
        # Record 2 spans lines 2-3, so the bad record starts on line 4.
        text = 'decision_id,action,value,chosen\n"P\n1",a,1.0,1\n' + bad_record + "\n"
        with pytest.raises(ParseError) as err:
            parse_values_csv(text)
        assert err.value.row == 4
        assert err.value.column == column

    def test_crlf_and_bom_tolerated(self):
        crlf = VALUES_4T.replace("\n", "\r\n").encode("utf-8-sig")
        decisions = parse_values_csv(crlf)
        assert decisions[0].chosen == "NE"
        assert len(decisions[0].entries) == 4

    def test_sloppy_triple_normalized(self):
        text = (
            "decision_id,action,value,chosen,win,loss,draw\n"
            "d,x,0.5,1,0.6000001,0.3,0.1\n"
        )
        (dv,) = parse_values_csv(text)
        triple = dv.outcomes["x"]
        assert triple.win + triple.loss + triple.draw == pytest.approx(1.0, abs=1e-12)


class TestParsePredictions:
    """predictions.csv refusals.  The parser checks the file's shape; every
    rule on what a record's fields say is ExperimentBundle's, so those cases
    read a whole bundle."""

    def manifest(self):
        return make_mnk_manifest(BoardConfig(9, 4, 4), "exp")

    def read(self, tmp_path, text, decision_ids=("P1",)):
        """read_bundle on a bundle whose predictions.csv is ``text``: each of
        decision_ids values A1 and B1 only, and T is its one treatment."""
        values = tuple(DecisionValues(d, {"A1": 1.0, "B1": 0.0}, "A1") for d in decision_ids)
        path = write_bundle(ExperimentBundle(self.manifest(), values, Predictions(), ("T",)), tmp_path)
        (path / "predictions.csv").write_text(text, encoding="utf-8")
        return read_bundle(path)

    def test_count_shape(self):
        lines = ["participant_id,treatment,decision_id,predicted_action"]
        for i in range(86):
            for d in range(4):
                lines.append(f"p{i:03d},T{i % 8},P{d + 1},A1")
        records = parse_predictions_csv("\n".join(lines) + "\n")
        assert len(records) == 344

    def test_unknown_action_rejected(self, tmp_path):
        text = "participant_id,treatment,decision_id,predicted_action\np1,T,P1,Z9\n"
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert err.value.row == 2
        assert err.value.column == "predicted_action"
        assert str(err.value) == (
            "prediction by 'p1' references unknown action 'Z9' "
            "(row 2, column 'predicted_action')"
        )

    def test_unknown_decision_rejected(self, tmp_path):
        text = "participant_id,treatment,decision_id,predicted_action\np1,T,P9,A1\n"
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert err.value.row == 2
        assert err.value.column == "decision_id"
        assert str(err.value) == (
            "prediction by 'p1' references unknown decision 'P9' (row 2, column 'decision_id')"
        )

    def test_unvalued_action_names_its_row(self, tmp_path):
        # C1 is a board square, but decision P1 does not value it.
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            "\n"
            "p2,T,P1,C1\n"
        )
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert str(err.value) == (
            "prediction by 'p2' references action 'C1', which decision 'P1' does not value "
            "(row 4, column 'predicted_action')"
        )

    def test_unlisted_treatment_names_its_row(self, tmp_path):
        # A blank line and a record spanning lines 4-5 precede the bad record.
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            "\n"
            '"p\n2",T,P1,A1\n'
            "\n"
            "p3,U,P1,A1\n"
        )
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert (err.value.row, err.value.column) == (7, "treatment")
        assert str(err.value) == (
            "prediction by 'p3' has unlisted treatment 'U' (row 7, column 'treatment')"
        )

    @pytest.mark.parametrize("records, refused", [
        (["p1,T,P9,A1", "p2,T,P1,A1", "p2,T,P1,B1"], ("unknown decision 'P9'", 2)),
        (["p2,T,P1,A1", "p2,T,P1,B1", "p1,T,P9,A1"], ("duplicate prediction", 3)),
        (["p1,T,P1,Z9", "p2,,P1,A1"], ("unknown action 'Z9'", 2)),
        (["p2,,P1,A1", "p1,T,P1,Z9"], ("must be non-empty", 2)),
    ], ids=["unknown-decision-first", "duplicate-first", "unknown-action-first", "empty-first"])
    def test_first_bad_record_in_file_order_is_refused(self, tmp_path, records, refused):
        text = "participant_id,treatment,decision_id,predicted_action\n" + "\n".join(records) + "\n"
        message, row = refused
        with pytest.raises(ParseError, match=message) as err:
            self.read(tmp_path, text)
        assert err.value.row == row

    def test_duplicate_participant_decision_rejected(self, tmp_path):
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            "p1,T,P1,B1\n"
        )
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert err.value.row == 3

    def test_empty_file_with_header(self):
        text = "participant_id,treatment,decision_id,predicted_action\n"
        assert parse_predictions_csv(text) == Predictions()

    def test_blank_line_counts_toward_row_numbers(self, tmp_path):
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            "\n"
            "p2,T,P1,Z9\n"
        )
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert err.value.row == 4
        assert err.value.column == "predicted_action"

    def test_oversized_field_is_a_parse_error(self):
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            'p2,T,P1,"' + "x" * 200_000 + '"\n'
        )
        with pytest.raises(ParseError, match="malformed predictions.csv") as err:
            parse_predictions_csv(text)
        assert err.value.row == 3

    @pytest.mark.parametrize(
        "bad_record, column",
        [("p2,T,P1,Z9", "predicted_action"), ('p2,T,P1,"' + "x" * 200_000 + '"', None)],
        ids=["invalid_field", "oversized_field"],
    )
    def test_row_is_line_where_record_starts(self, tmp_path, bad_record, column):
        # Record 2 spans lines 2-3, so the bad record starts on line 4.  The
        # invalid field is refused by the bundle, the oversized one by the parser.
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            '"p\n1",T,P1,A1\n' + bad_record + "\n"
        )
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text)
        assert err.value.row == 4
        assert err.value.column == column

    def test_shape_errors_name_the_record_start_line(self, tmp_path):
        # A blank line and a record spanning lines 3-4 precede the bad record.
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "\n"
            '"p\n1",T,P1,A1\n'
            "p2,,P1,A1\n"
        )
        with pytest.raises(ParseError, match="must be non-empty") as err:
            self.read(tmp_path, text)
        assert err.value.row == 5

    def test_records_share_one_string_per_field_value(self):
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p01,OTB,P1,A1\n"
            "p01,OTB,P2,A1\n"
            "p02,OTB,P1,A1\n"
            "p02,OTB,P2,A1\n"
        )
        _, treatments, decision_ids, predicted = parse_predictions_csv(text).columns
        assert all(t is treatments[0] for t in treatments)
        assert all(a is predicted[0] for a in predicted)
        assert decision_ids[2] is decision_ids[0]
        assert decision_ids[1] is decision_ids[3]

    @staticmethod
    def outcome(data):
        """The records, or the refusal's message, row and column."""
        try:
            return parse_predictions_csv(data)
        except ParseError as exc:
            return str(exc), exc.row, exc.column

    def refusal(self, tmp_path, text, decision_ids=("P1",)):
        """read_bundle's refusal of ``text`` as (message, row, column)."""
        with pytest.raises(ParseError) as err:
            self.read(tmp_path, text, decision_ids)
        return str(err.value), err.value.row, err.value.column

    def test_duplicate_in_non_adjacent_rows_rejected(self, tmp_path):
        text = (
            "participant_id,treatment,decision_id,predicted_action\n"
            "p1,T,P1,A1\n"
            "p2,T,P1,A1\n"
            "p1,T,P2,A1\n"
            "p2,T,P2,A1\n"
            "p1,T,P1,B1\n"
        )
        assert self.refusal(tmp_path, text, ("P1", "P2")) == (
            "duplicate prediction by 'p1' for decision 'P1' (row 6, column 'participant_id')",
            6,
            "participant_id",
        )

    def test_duplicate_among_more_than_64_decisions_rejected(self, tmp_path):
        # A participant's decision mask grows past one machine word.
        decision_ids = [f"D{d}" for d in range(70)]
        rows = [f"p1,T,{d},A1" for d in decision_ids] + [f"p2,T,{d},A1" for d in decision_ids]
        rows.insert(100, "p1,T,D67,B1")  # record 101, line 102
        text = "participant_id,treatment,decision_id,predicted_action\n" + "\n".join(rows) + "\n"
        unique = text.replace("p1,T,D67,B1", "p3,T,D67,B1")
        assert len(self.read(tmp_path, unique, decision_ids).predictions) == 141
        assert self.refusal(tmp_path, text, decision_ids) == (
            "duplicate prediction by 'p1' for decision 'D67' (row 102, column 'participant_id')",
            102,
            "participant_id",
        )

    def test_records_of_a_participant_share_one_id_string(self):
        text = "participant_id,treatment,decision_id,predicted_action\n" + "".join(
            f"p{i:05d},T,P{d},A1\n" for d in range(1, 4) for i in range(5)
        )
        for data in (text, text.encode()):
            participant_ids = parse_predictions_csv(data).columns[0]
            first = {}
            for pid in participant_ids:
                assert pid is first.setdefault(pid, pid)
            assert len(first) == 5

    @pytest.mark.parametrize(
        "text, refused_row",
        [
            ("\ufeffparticipant_id,treatment,decision_id,predicted_action\np1,T,P1,A1\n", None),
            (
                "participant_id,treatment,decision_id,predicted_action\r\n"
                "p1,T,P1,A1\r\np2,T,P1,A1\r\n",
                None,
            ),
            ('participant_id,treatment,decision_id,predicted_action\np1,T,"P\r1",A1\n', None),
            ("participant_id,treatment,decision_id,predicted_action\np1,T,P1,A1\np2,T,P\r1,A1\n", 3),
            (
                "\ufeffparticipant_id,treatment,decision_id,predicted_action\r\n"
                "p1,T,P1,A1\r\np1,T,P1,B1\r\n",
                3,
            ),
        ],
        ids=["bom", "crlf", "quoted_cr", "bare_cr", "bom_crlf_duplicate"],
    )
    def test_bytes_and_str_agree(self, tmp_path, text, refused_row):
        """The parser reads a text and its UTF-8 bytes alike, and read_bundle
        refuses the text on its bad record's row."""
        from_str = self.outcome(text)
        assert self.outcome(text.encode()) == from_str
        if refused_row is None:
            assert from_str.columns[0][0] == "p1"
        else:
            assert self.refusal(tmp_path, text)[1] == refused_row


class TestParseMemory:
    def test_peak_is_the_records(self):
        """Parsing 80k rows keeps at most 64 bytes a prediction (four list
        slots and the interned strings; a record per prediction kept ~100)
        and peaks at no more than 1.5 times what it keeps: the chunks of
        rows and the line source stay small."""
        squares = [sq.text for sq in BoardConfig(9, 4, 4).all_squares()]
        treatments = ("NONE", "STT", "OTB", "BTW", "STT+OTB", "OTB+BTW", "STT+BTW", "ALL")
        rows = ["participant_id,treatment,decision_id,predicted_action"]
        for i in range(20_000):
            for d in range(4):
                rows.append(f"p{i + 1:05d},{treatments[i % 8]},P{d + 1},{squares[(7 * i + 13 * d) % 36]}")
        data = ("\n".join(rows) + "\n").encode()
        del rows
        tracemalloc.start()
        try:
            records = parse_predictions_csv(data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 80_000
        assert kept <= 64 * 80_000
        assert peak <= 1.5 * kept


def generate_small(seed=7, behavior=None, participants=6, mutation=None):
    return generate_synthetic_experiment(
        config=BoardConfig(3, 3, 3),
        agents=[AgentSpec(mutation=mutation)],
        participants=participants,
        treatments=["T0", "T1"],
        behavior=behavior or ParticipantModel(rank_probs=(0.6, 0.3, 0.1)),
        seed=seed,
        decisions_per_agent=3,
    )


class TestSyntheticGeneration:
    def test_same_seed_same_bundle(self):
        assert generate_small(seed=5) == generate_small(seed=5)

    def test_same_seed_identical_bytes(self, tmp_path):
        a = write_bundle(generate_small(seed=5), tmp_path / "a")
        b = write_bundle(generate_small(seed=5), tmp_path / "b")
        for name in ("manifest.json", "values.csv", "predictions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self):
        assert generate_small(seed=5) != generate_small(seed=6)

    def test_always_best_scores_zero_everywhere(self):
        bundle = generate_small(behavior=ParticipantModel.always_best())
        samples = score_dataset(bundle.predictions, bundle.values_by_decision())
        assert samples
        assert all(s.lr == 0 and s.lv == 0.0 for s in samples)

    def test_always_best_with_unmutated_agent_hits_mrbo_one(self):
        bundle = generate_small(
            behavior=ParticipantModel.always_best(),
            mutation=Mutation(seed=3, magnitude=0.0),
        )
        for dv in bundle.decisions:
            group = Counter(
                predicted for _, _, d, predicted in bundle.predictions if d == dv.decision_id
            )
            score = mrbo_ext(vote_ranklist(group), agent_ranklist(dv))
            assert score == pytest.approx(1.0, abs=1e-12)

    def test_uniform_model_mean_rank_loss(self):
        # 36 actions, uniform predictions: mean LR converges to 35/2 = 17.5.
        bundle = generate_synthetic_experiment(
            config=BoardConfig(9, 4, 4),
            agents=[AgentSpec(oracle="sampled", rollouts=16, seed=99)],
            participants=2500,
            treatments=["T"],
            behavior=ParticipantModel.uniform(),
            seed=42,
            decisions_per_agent=4,
        )
        samples = score_dataset(bundle.predictions, bundle.values_by_decision())
        assert len(samples) == 10_000
        # Only the first decision offers all 36 actions; later boards have
        # fewer empty squares, so restrict to P1.
        p1 = [s.lr for s in samples if s.decision_id == "P1"]
        assert len(p1) == 2500
        mean = sum(p1) / len(p1)
        assert abs(mean - 17.5) <= 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_small(participants=0)
        with pytest.raises(ValidationError):
            generate_synthetic_experiment(
                config=BoardConfig(3, 3, 3),
                agents=[],
                participants=1,
                treatments=["T"],
                behavior=ParticipantModel.uniform(),
                seed=1,
            )


    @pytest.mark.parametrize(
        "changed,message",
        [
            ({"treatments": ["T0", "T1", "T0"]}, "treatment 'T0' is listed more than once"),
            ({"treatments": ["", "B"]}, "treatment labels must be non-empty"),
            (
                {"participants": 2, "treatments": ["A", "B", "C"]},
                "participants must be at least the 3 treatments, got 2",
            ),
            ({"agents": [AgentSpec(), "exhaustive"]}, "agents[1] is not an AgentSpec"),
            ({"treatments": ["A", "\udcff"]}, "treatment '\\udcff' is not UTF-8"),
            ({"treatments": ["A", 2]}, "treatment 2 is not a string"),
            # every label is checked to be a string before any is tested for emptiness
            ({"treatments": ["", 2]}, "treatment 2 is not a string"),
        ],
        ids=["repeated-treatment", "empty-treatment", "fewer-participants-than-treatments",
             "agent-not-a-spec", "non-utf8-treatment", "non-string-treatment",
             "non-string-after-empty-treatment"],
    )
    def test_refused_before_the_first_game(self, monkeypatch, changed, message):
        def no_games(*args, **kwargs):
            raise AssertionError("a game was played before the arguments were checked")

        monkeypatch.setattr(dataset, "value_oracle", no_games)
        arguments = {
            "config": BoardConfig(3, 3, 3),
            "agents": [AgentSpec()],
            "participants": 6,
            "treatments": ["T0", "T1"],
            "behavior": ParticipantModel.uniform(),
            "seed": 1,
        }
        with pytest.raises(ValidationError, match=re.escape(message)):
            generate_synthetic_experiment(**{**arguments, **changed})


class TestParticipantModel:
    def test_rank_probs_validation(self):
        with pytest.raises(ValidationError):
            ParticipantModel(rank_probs=())
        with pytest.raises(ValidationError):
            ParticipantModel(rank_probs=(-0.2, 1.2))
        with pytest.raises(ValidationError):
            ParticipantModel(rank_probs=(0.0, 0.0))

    @pytest.mark.parametrize("text, rank_probs", [
        ("best", (1.0,)), ("uniform", None), ("0.5,.2,1e-1,3", (0.5, 0.2, 0.1, 3.0)),
    ])
    def test_parse(self, text, rank_probs):
        assert ParticipantModel.parse(text) == ParticipantModel(rank_probs)

    @pytest.mark.parametrize("text", ["1_0", "0.5, 0.2", "\u0665", "inf", "", "0.5,", "Best"])
    def test_parse_refuses_what_values_csv_refuses(self, text):
        with pytest.raises(ValidationError, match="comma-separated decimal weights"):
            ParticipantModel.parse(text)

    def test_always_best_predicts_top_rank(self):
        dv = DecisionValues("d", {"x": 1.0, "y": 0.5}, chosen="x")
        rng = random.Random(0)
        model = ParticipantModel.always_best()
        assert all(dv.actions[model._draw(dv)(rng)] == "x" for _ in range(20))

    def test_truncates_to_available_ranks(self):
        dv = DecisionValues("d", {"x": 1.0, "y": 0.5}, chosen="x")
        model = ParticipantModel(rank_probs=(0.5, 0.25, 0.25))  # 3 ranks, 2 actions
        rng = random.Random(1)
        picks = {dv.actions[model._draw(dv)(rng)] for _ in range(50)}
        assert picks == {"x", "y"}


def reference_sample(model, values, rng):
    """Rank draw as a linear scan over the cumulative weights."""
    order = values.actions
    if model.rank_probs is None:
        return order[rng.randrange(len(order))]
    probs = model.rank_probs[: len(order)]
    total = sum(probs)
    if total <= 0:
        raise ValidationError(
            f"participant model has no mass on the {len(order)} available ranks"
        )
    draw = rng.random() * total
    cumulative = 0.0
    for i, p in enumerate(probs):
        cumulative += p
        if draw < cumulative:
            return order[i]
    return order[len(probs) - 1]


class TestSamplingMatchesLinearScan:
    def random_model(self, rng):
        weights = [
            rng.choice((0.0, 0.0, rng.random(), rng.uniform(0, 1e-3), 1.0))
            for _ in range(rng.randint(1, 12))
        ]
        weights[rng.randrange(len(weights))] = rng.random() + 1e-9
        return ParticipantModel(rank_probs=tuple(weights))

    def test_sample_matches_linear_scan(self):
        rng = random.Random(5)
        for trial in range(300):
            actions = [f"a{i}" for i in range(rng.randint(1, 9))]
            entries = {a: rng.choice((0.0, 1.0, rng.random())) for a in actions}
            dv = DecisionValues("d", entries, chosen=max(entries, key=entries.get))
            model = ParticipantModel.uniform() if trial % 10 == 0 else self.random_model(rng)
            a, b = random.Random(trial), random.Random(trial)
            for _ in range(40):
                try:
                    expected = reference_sample(model, dv, a)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=str(exc)):
                        model._draw(dv)(b)
                    break
                assert dv.actions[model._draw(dv)(b)] == expected
            assert a.random() == b.random()

    def test_draws_on_cumulative_boundaries(self):
        class FixedRng:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        dv = DecisionValues("d", {"w": 3.0, "x": 2.0, "y": 1.0, "z": 0.0}, chosen="w")
        model = ParticipantModel(rank_probs=(0.0, 0.25, 0.0, 0.25, 0.5))
        for value in (0.0, 0.25, 0.5, 0.75, 0.999):
            expected = reference_sample(model, dv, FixedRng(value))
            assert dv.actions[model._draw(dv)(FixedRng(value))] == expected, value

    def test_no_mass_on_available_ranks(self):
        dv = DecisionValues("d", {"x": 1.0, "y": 0.5}, chosen="x")
        model = ParticipantModel(rank_probs=(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="no mass on the 2 available ranks"):
            model._draw(dv)(random.Random(0))

    def test_generated_predictions_match_linear_scan(self):
        behavior = ParticipantModel(rank_probs=(0.5, 0.0, 0.3, 0.0, 0.2))
        bundle = generate_small(seed=3, behavior=behavior, participants=9)
        expected = []
        for i in range(9):
            pid = f"p{i + 1:03d}"
            rng = random.Random(f"3|participant|{pid}")
            for dv in bundle.decisions:
                treatment = bundle.treatments[i % len(bundle.treatments)]
                expected.append(
                    (pid, treatment, dv.decision_id, reference_sample(behavior, dv, rng))
                )
        assert [tuple(rec) for rec in bundle.predictions] == expected


# The bundle of test_golden_outputs.BLOCKS: two full blocks of participants
# and a partial one.
BLOCKS_PARTICIPANTS = 4133
BLOCKS_TREATMENTS = ("A", "B", "C")
BLOCKS_BEHAVIOR = "0.5,0.2,0.1,0.08,0.07,0.05"  # simulate's default --behavior


def generate_blocks():
    return generate_synthetic_experiment(
        BoardConfig(3, 3, 3), [AgentSpec()], BLOCKS_PARTICIPANTS, BLOCKS_TREATMENTS,
        ParticipantModel.parse(BLOCKS_BEHAVIOR), seed=9,
    )


def blocks_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["bundles"]["blocks"]


FORKED_SIMULATE = """
import hashlib, json, os, sys

forks = []
_fork = os.fork


def counting_fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from predscore.cli import main

argv = ["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", sys.argv[3],
        "--treatments", sys.argv[4], "--seed", "9", "--out-dir", sys.argv[2]]
assert main(argv) == 0
hashes = {name: hashlib.sha256(open(os.path.join(sys.argv[2], name), "rb").read()).hexdigest()
          for name in ("predictions.csv", "values.csv")}
print(json.dumps({"forks": len(forks), "hashes": hashes}))
"""


class TestParticipantBlocks:
    def test_spans_full_blocks_and_a_partial_one(self):
        assert 2 * dataset._PARTICIPANT_BLOCK < BLOCKS_PARTICIPANTS < 3 * dataset._PARTICIPANT_BLOCK

    def test_predictions_match_per_participant_draws(self):
        """Every participant draws each decision from its own Random, in
        participant order, whatever block it fell in."""
        behavior = ParticipantModel.parse(BLOCKS_BEHAVIOR)
        bundle = generate_blocks()
        draws = [(dv, behavior._draw(dv)) for dv in bundle.decisions]
        expected = []
        for i in range(BLOCKS_PARTICIPANTS):
            pid = f"p{i + 1:03d}"
            rng = random.Random(f"9|participant|{pid}")
            treatment = BLOCKS_TREATMENTS[i % len(BLOCKS_TREATMENTS)]
            for dv, draw in draws:
                expected.append((pid, treatment, dv.decision_id, dv.actions[draw(rng)]))
        assert [tuple(rec) for rec in bundle.predictions] == expected

    def test_library_bundle_matches_recorded_hashes(self, tmp_path):
        path = write_bundle(generate_blocks(), tmp_path / "b")
        assert {name: hashlib.sha256((path / name).read_bytes()).hexdigest()
                for name in blocks_golden()} == blocks_golden()

    @pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1)])
    def test_forked_blocks_write_the_recorded_bundle(self, tmp_path, cpus, forks):
        """In a fresh interpreter, which holds no second thread, simulate
        forks one child for its blocks when the mask has two CPUs, and
        writes the same bytes either way."""
        src = str(Path(dataset.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", FORKED_SIMULATE, str(cpus), str(tmp_path / "b"),
             str(BLOCKS_PARTICIPANTS), ",".join(BLOCKS_TREATMENTS)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            encoding="utf-8", timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report == {"forks": forks, "hashes": blocks_golden()}


class TestFourTowersFixture:
    def test_dp1_values(self):
        bundle = load_four_towers_fixture()
        (dp1,) = bundle.decisions
        assert dp1.decision_id == "DP1"
        assert dp1.value(dp1.chosen) == 31.0
        assert sorted(dp1.entries.values(), reverse=True) == [31.0, -28.0, -284.0, -313.0]

    def test_values_within_published_range(self):
        bundle = load_four_towers_fixture()
        lo, hi = FOUR_TOWERS_VALUE_RANGE
        for dv in bundle.decisions:
            assert all(lo <= v <= hi for v in dv.entries.values())

    def test_thirteen_decisions_pending(self):
        bundle = load_four_towers_fixture()
        assert tuple(did for did, _ in bundle.pending_decisions) == tuple(
            f"DP{i}" for i in range(2, 15)
        )
        assert all(actions == QUADRANTS for _, actions in bundle.pending_decisions)

    def test_round_trips_through_directory(self, tmp_path):
        bundle = load_four_towers_fixture()
        assert read_bundle(write_bundle(bundle, tmp_path / "ft")) == bundle

    def test_a_prediction_on_a_pending_decision_is_refused_as_pending(self, tmp_path):
        """DP2 is declared but has no value table yet: a prediction on it is
        refused as pending, not as unknown, with the same column and row."""
        bundle = load_four_towers_fixture()
        rows = [("p1", "NONE", "DP1", "NE"), ("p1", "NONE", "DP2", "NE")]
        message = ("prediction by 'p1' references decision 'DP2', which is pending: "
                   "it has no value table")
        with pytest.raises(ValidationError) as err:
            ExperimentBundle(bundle.manifest, bundle.decisions, predictions_of(rows),
                             bundle.treatments, bundle.pending_decisions)
        assert str(err.value) == message
        assert (err.value.index, err.value.column) == (1, "decision_id")
        path = write_bundle(bundle, tmp_path / "ft")
        with open(path / "predictions.csv", "a", encoding="utf-8") as fh:
            fh.writelines(",".join(row) + "\n" for row in rows)
        with pytest.raises(ParseError) as err:
            read_bundle(path)
        assert str(err.value) == f"{message} (row 3, column 'decision_id')"
        assert (err.value.row, err.value.column) == (3, "decision_id")


class TestBundleValidation:
    def test_prediction_for_unknown_decision_rejected(self):
        bundle = random_bundle(1)
        bad = ("p", bundle.treatments[0], "nope", bundle.manifest.action_ids[0])
        with pytest.raises(ValidationError):
            ExperimentBundle(
                manifest=bundle.manifest,
                decisions=bundle.decisions,
                predictions=predictions_of([*bundle.predictions, bad]),
                treatments=bundle.treatments,
            )

    def test_prediction_for_unknown_action_rejected(self):
        bundle = random_bundle(1)
        bad = ("p", bundle.treatments[0], bundle.decisions[0].decision_id, "nope")
        with pytest.raises(ValidationError):
            ExperimentBundle(
                manifest=bundle.manifest,
                decisions=bundle.decisions,
                predictions=predictions_of([*bundle.predictions, bad]),
                treatments=bundle.treatments,
            )

    def test_refusal_carries_the_record_position_and_column(self):
        bundle = random_bundle(1)
        bad = ("p", "unlisted", bundle.decisions[0].decision_id, "act0")
        with pytest.raises(ValidationError) as err:
            ExperimentBundle(bundle.manifest, bundle.decisions,
                             predictions_of([*bundle.predictions, bad]), bundle.treatments)
        assert type(err.value) is ValidationError
        assert (err.value.index, err.value.column) == (len(bundle.predictions), "treatment")

    def test_mnk_manifest_requires_full_square_list(self):
        with pytest.raises(ValidationError):
            ActionManifest(
                experiment_id="x",
                domain="mnk",
                actions=(("A1", "A1"),),
                board=BoardConfig(3, 3, 3),
            )
