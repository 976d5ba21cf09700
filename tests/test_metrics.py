import math
import pickle
import random
from collections import Counter

import pytest

from prediction_rows import predictions_of
from predscore.errors import UnknownActionError, ValidationError
from predscore.metrics import (
    GradeScale,
    MetricSample,
    Predictions,
    discretized_loss_in_rank,
    loss_in_rank,
    loss_in_value,
    score_dataset,
    score_table,
    weighted_mean,
)
from predscore.values import DecisionValues


def make_values(decision_id, values, chosen=None):
    entries = dict(values)
    if chosen is None:
        chosen = max(entries, key=lambda a: (entries[a], a))
    return DecisionValues(decision_id=decision_id, entries=entries, chosen=chosen)


def table_36(top, second, decision_id="P1"):
    """36-action table with controlled top-two values, the rest decaying."""
    entries = {}
    squares = [f"{chr(ord('A') + c)}{r + 1}" for c in range(9) for r in range(4)]
    for i, sq in enumerate(squares):
        entries[sq] = second - 0.01 * (i + 1)
    entries[squares[0]] = top
    entries[squares[1]] = second
    return DecisionValues(decision_id=decision_id, entries=entries, chosen=squares[0])


def random_values(rng, n_actions=8, decision_id="d"):
    entries = {f"a{i:02d}": rng.uniform(-1, 1) for i in range(n_actions)}
    chosen = max(entries, key=entries.get)
    return DecisionValues(decision_id=decision_id, entries=entries, chosen=chosen)


class TestLossInValue:
    def test_close_decision(self):
        dv = table_36(0.2118, 0.2009)
        second_best = dv.actions[1]
        assert loss_in_value(dv, second_best) == pytest.approx(0.0109, abs=1e-12)

    def test_wide_decision(self):
        dv = table_36(0.2438, 0.2011)
        second_best = dv.actions[1]
        assert loss_in_value(dv, second_best) == pytest.approx(0.0427, abs=1e-12)

    def test_predicting_chosen_is_zero(self):
        dv = table_36(0.3, 0.2)
        assert loss_in_value(dv, dv.chosen) == 0.0

    def test_four_towers_point_spread(self):
        dv = make_values("DP1", {"NE": 31.0, "NW": -28.0, "SE": -284.0, "SW": -313.0})
        assert dv.chosen == "NE"
        assert loss_in_value(dv, "SE") == 315.0

    def test_unknown_action_rejected(self):
        dv = table_36(0.3, 0.2)
        with pytest.raises(UnknownActionError):
            loss_in_value(dv, "Z9")


class TestWeightedMean:
    def test_sum_that_overflows_is_refused(self):
        assert weighted_mean([(1e308, 1), (0.5, 3)]) == 1e308 / 4
        with pytest.raises(ValidationError, match="the vote-weighted sum overflows"):
            weighted_mean([(1e308, 2), (0.5, 1)])


class TestLossInRank:
    def test_second_best_scores_one(self):
        for top, second in ((0.2118, 0.2009), (0.2438, 0.2011)):
            dv = table_36(top, second)
            assert loss_in_rank(dv, dv.actions[1]) == 1

    def test_chosen_scores_zero(self):
        dv = table_36(0.5, 0.4)
        assert loss_in_rank(dv, dv.chosen) == 0

    def test_worst_of_four(self):
        dv = make_values("DP1", {"NE": 31.0, "NW": -28.0, "SE": -284.0, "SW": -313.0})
        assert loss_in_rank(dv, "SW") == 3

    def test_value_ties_break_canonically(self):
        dv = DecisionValues("d", {"B1": 0.5, "A1": 0.5, "C1": 0.1}, chosen="A1")
        assert dv.rank("A1") == 1 and dv.rank("B1") == 2
        assert loss_in_rank(dv, "B1") == 1


class TestGrades:
    def test_default_scale_boundaries(self):
        dv36 = table_36(0.5, 0.4)
        by_rank = {dv36.rank(a): a for a in dv36.actions}
        assert discretized_loss_in_rank(dv36, by_rank[3]) == "A"
        assert discretized_loss_in_rank(dv36, by_rank[16]) == "D"
        assert discretized_loss_in_rank(dv36, by_rank[17]) == "F"
        assert discretized_loss_in_rank(dv36, by_rank[1]) == "A"

    def test_equal_ranks_imply_equal_grades(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_values(rng, n_actions=20, decision_id="a")
            b = random_values(rng, n_actions=20, decision_id="b")
            for action_a in a.entries:
                for action_b in b.entries:
                    if a.rank(action_a) == b.rank(action_b):
                        assert discretized_loss_in_rank(a, action_a) == discretized_loss_in_rank(
                            b, action_b
                        )

    def test_scale_validation(self):
        with pytest.raises(ValidationError):
            GradeScale(((4, "A"), (8, "B")))  # last bin bounded
        with pytest.raises(ValidationError):
            GradeScale(((8, "A"), (4, "B"), (None, "C")))  # not increasing
        with pytest.raises(ValidationError):
            GradeScale(((4, "A"), (8, "A"), (None, "F")))  # duplicate label

    def test_custom_scale(self):
        pass_fail = GradeScale(((1, "pass"), (None, "fail")))
        dv = make_values("d", {"x": 3.0, "y": 2.0, "z": 1.0})
        assert discretized_loss_in_rank(dv, "x", pass_fail) == "pass"
        assert discretized_loss_in_rank(dv, "z", pass_fail) == "fail"


def votes(*predicted):
    """One group's vote count for one decision."""
    return Counter(predicted)


class TestRecords:
    def test_keyword_construction_and_field_order(self):
        sample = MetricSample(
            participant_id="p1", decision_id="P1", treatment="T", predicted="A1",
            lv=0.25, lr=2, grade="A",
        )
        assert MetricSample._fields == (
            "participant_id", "decision_id", "treatment", "predicted", "lv", "lr", "grade"
        )
        assert tuple(sample) == ("p1", "P1", "T", "A1", 0.25, 2, "A")

    def test_fields_cannot_be_assigned(self):
        sample = MetricSample("p1", "P1", "T", "A1", 0.25, 2, "A")
        with pytest.raises(AttributeError):
            sample.lv = 0.0
        with pytest.raises(AttributeError):
            sample.extra = 1


class TestPredictions:
    ROWS = (("p1", "T", "P1", "A1"), ("p2", "U", "P1", "B1"), ("p1", "T", "P2", "A1"))

    def test_columns_iterate_as_plain_tuples(self):
        predictions = predictions_of(self.ROWS)
        assert predictions.columns == (["p1", "p2", "p1"], ["T", "U", "T"], ["P1", "P1", "P2"],
                                       ["A1", "B1", "A1"])
        assert len(predictions) == 3 and tuple(predictions) == self.ROWS
        assert all(type(row) is tuple for row in predictions)
        assert predictions == predictions_of(self.ROWS) != predictions_of(self.ROWS[:2])
        assert predictions != self.ROWS and predictions != list(self.ROWS)
        assert predictions_of(()) == Predictions() and not Predictions()
        with pytest.raises(TypeError):
            predictions[0]
        with pytest.raises(TypeError):
            hash(predictions)

    @pytest.mark.parametrize("protocol", [0, 2, 5])
    def test_pickles_on_every_protocol(self, protocol):
        predictions = predictions_of(self.ROWS)
        assert pickle.loads(pickle.dumps(predictions, protocol)) == predictions

    @pytest.mark.parametrize("build, message", [
        (lambda: Predictions((["p1"], ["T"], ["P1"], [])), "four columns of one length"),
        (lambda: Predictions((["p1"], ["T"], ["P1"])), "four columns of one length"),
    ])
    def test_malformed_columns_are_refused(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


def av(group, dv):
    """A group's vote-weighted mean value (AV), as the package takes a mean."""
    return weighted_mean((dv.value(a), n) for a, n in group.items())


def ar(group, dv):
    """A group's vote-weighted mean rank (AR)."""
    return weighted_mean((dv.rank(a), n) for a, n in group.items())


class TestGroupScores:
    def test_av_degenerate_group(self):
        dv = make_values("d", {"x": 0.5, "y": 0.1})
        assert av(votes("x", "x", "x"), dv) == pytest.approx(0.5)

    def test_av_two_point_mean(self):
        dv = make_values("d", {"x": 0.2, "y": 0.4, "z": 0.0})
        assert av(votes("x", "y"), dv) == pytest.approx(0.3)

    def test_av_equals_mean_of_predicted_values(self):
        rng = random.Random(11)
        for _ in range(25):
            dv = random_values(rng)
            picks = [rng.choice(list(dv.entries)) for _ in range(rng.randint(1, 12))]
            group = votes(*picks)
            expected = sum(dv.value(a) for a in picks) / len(picks)
            assert av(group, dv) == pytest.approx(expected)

    def test_ar_all_best(self):
        dv = make_values("d", {"x": 0.5, "y": 0.1})
        assert ar(votes("x", "x"), dv) == 1.0

    def test_ar_two_point_mean(self):
        dv = make_values("d", {"x": 0.5, "y": 0.3, "z": 0.1})
        assert ar(votes("x", "z"), dv) == pytest.approx(2.0)

    def test_ar_lower_bound(self):
        rng = random.Random(12)
        for _ in range(25):
            dv = random_values(rng)
            picks = [rng.choice(list(dv.entries)) for _ in range(rng.randint(1, 10))]
            assert ar(votes(*picks), dv) >= 1.0

    def test_group_mean_lv_identity(self):
        # mean per-participant loss = V(chosen) - AV of the group
        rng = random.Random(13)
        for _ in range(25):
            dv = random_values(rng)
            picks = [rng.choice(list(dv.entries)) for _ in range(rng.randint(1, 10))]
            group = votes(*picks)
            direct = sum(loss_in_value(dv, a) for a in picks) / len(picks)
            assert direct == pytest.approx(dv.value(dv.chosen) - av(group, dv))

    def test_empty_group_rejected(self):
        dv = make_values("d", {"x": 0.5})
        with pytest.raises(ValidationError):
            av({}, dv)
        with pytest.raises(ValidationError):
            ar({"x": 0}, dv)

    def test_negative_count_rejected(self):
        dv = make_values("d", {"x": 0.5, "y": 0.1})
        with pytest.raises(ValidationError):
            av({"x": 2, "y": -1}, dv)


class TestScoreDataset:
    def tables_and_predictions(self, participants=86, decisions=4):
        rng = random.Random(21)
        tables = {}
        for d in range(decisions):
            tables[f"P{d + 1}"] = random_values(rng, n_actions=12, decision_id=f"P{d + 1}")
        predictions = []
        for i in range(participants):
            for d in range(decisions):
                dv = tables[f"P{d + 1}"]
                predictions.append(
                    (f"p{i:03d}", "T" + str(i % 4), dv.decision_id, rng.choice(list(dv.entries)))
                )
        return tables, predictions

    def test_sample_count(self):
        tables, predictions = self.tables_and_predictions()
        samples = score_dataset(predictions_of(predictions), tables)
        assert len(samples) == 86 * 4

    def test_empty_input(self):
        assert score_dataset(Predictions(), {}) == []

    def test_deterministic_order(self):
        tables, predictions = self.tables_and_predictions(participants=5)
        rng = random.Random(1)
        shuffled = predictions[:]
        rng.shuffle(shuffled)
        assert (score_dataset(predictions_of(shuffled), tables)
                == score_dataset(predictions_of(predictions), tables))

    def test_treatment_partition(self):
        tables, predictions = self.tables_and_predictions(participants=12)
        samples = score_dataset(predictions_of(predictions), tables)
        by_treatment = {}
        for s in samples:
            by_treatment.setdefault(s.treatment, []).append(s)
        merged = [s for group in by_treatment.values() for s in group]
        assert sorted(merged, key=lambda s: (s.participant_id, s.decision_id)) == samples

    def test_missing_table_rejected(self):
        tables, predictions = self.tables_and_predictions(participants=2)
        del tables["P1"]
        with pytest.raises(ValidationError):
            score_dataset(predictions_of(predictions), tables)

    def test_unknown_action_rejected(self):
        tables, _ = self.tables_and_predictions(participants=1)
        bad = predictions_of([("p0", "T", "P1", "nope")])
        with pytest.raises(UnknownActionError):
            score_dataset(bad, tables)


class TestInvariants:
    def test_losses_nonnegative_when_chosen_is_argmax(self):
        rng = random.Random(31)
        for _ in range(50):
            dv = random_values(rng)
            for action in dv.entries:
                assert loss_in_value(dv, action) >= 0
                assert loss_in_rank(dv, action) >= 0

    def test_lv_shift_invariance_and_scaling(self):
        rng = random.Random(32)
        for _ in range(30):
            dv = random_values(rng)
            shift = rng.uniform(-5, 5)
            scale = rng.uniform(0.1, 4.0)
            shifted = DecisionValues(
                "d", {a: v + shift for a, v in dv.entries.items()}, chosen=dv.chosen
            )
            scaled = DecisionValues(
                "d", {a: v * scale for a, v in dv.entries.items()}, chosen=dv.chosen
            )
            for action in dv.entries:
                base = loss_in_value(dv, action)
                assert loss_in_value(shifted, action) == pytest.approx(base, abs=1e-9)
                assert loss_in_value(scaled, action) == pytest.approx(base * scale, rel=1e-9)

    def test_rank_metrics_invariant_under_monotone_transform(self):
        rng = random.Random(33)
        for _ in range(30):
            dv = random_values(rng)
            transformed = DecisionValues(
                "d", {a: math.exp(2.0 * v) + 1 for a, v in dv.entries.items()}, chosen=dv.chosen
            )
            for action in dv.entries:
                assert loss_in_rank(dv, action) == loss_in_rank(transformed, action)
                assert discretized_loss_in_rank(dv, action) == discretized_loss_in_rank(
                    transformed, action
                )


class TestScoredViews:
    """score_dataset, grade_distribution and participant_loss_sums read one
    score per (decision, action); each sample and each view must equal the
    per-prediction reference."""

    SCALE = GradeScale(((1, "top"), (3, "mid"), (None, "low")))

    def bundle(self):
        from predscore.dataset import ActionManifest, ExperimentBundle

        actions = ("a", "b", "c", "d", "e")
        tables = (
            DecisionValues("D1", {"a": 0.5, "b": 0.5, "c": 0.1, "d": 0.1, "e": -0.25}, chosen="b"),
            DecisionValues("D2", {"a": 2.0, "b": 2.0, "c": 2.0, "d": 1.5, "e": 1.5}, chosen="a"),
        )
        rng = random.Random(41)
        predictions = predictions_of(
            (f"p{i:02d}", "T" + str(i % 3), dv.decision_id, rng.choice(actions))
            for i in reversed(range(30))
            for dv in reversed(tables)
        )
        return ExperimentBundle(
            manifest=ActionManifest("ties", "custom", tuple((a, a) for a in actions)),
            decisions=tables,
            predictions=predictions,
            treatments=("T0", "T1", "T2"),
        )

    def test_samples_and_views_match_reference(self):
        from predscore.report import grade_distribution, participant_loss_sums

        bundle = self.bundle()
        tables = bundle.values_by_decision()
        samples = score_dataset(bundle.predictions, tables, self.SCALE)
        ordered = sorted(bundle.predictions, key=lambda row: (row[0], row[2]))
        assert len(samples) == len(ordered)
        counts = {}
        sums = {"value": {}, "rank": {}}
        for s, (pid, treatment, decision_id, predicted) in zip(samples, ordered):
            dv = tables[decision_id]
            lv = loss_in_value(dv, predicted)
            lr = loss_in_rank(dv, predicted)
            grade = discretized_loss_in_rank(dv, predicted, self.SCALE)
            assert (s.participant_id, s.decision_id, s.treatment, s.predicted) == (
                pid, decision_id, treatment, predicted
            )
            assert (s.lv, s.lr, s.grade) == (lv, lr, grade)
            key = (decision_id, treatment, grade)
            counts[key] = counts.get(key, 0) + 1
            for space, loss in (("value", lv), ("rank", float(lr))):
                per = sums[space].setdefault(treatment, {})
                per[pid] = per.get(pid, 0.0) + loss

        scores = score_table(tables, self.SCALE)
        distribution = grade_distribution(bundle, bundle.vote_counts(), scores, self.SCALE)
        for decision_id, per_treatment in distribution.items():
            for treatment, by_label in per_treatment.items():
                for label, count in by_label.items():
                    assert count == counts.get((decision_id, treatment, label), 0)
        groups_by_space = participant_loss_sums(bundle, scores)
        for space, per_treatment in sums.items():
            groups = groups_by_space[space]
            assert [g.label for g in groups] == sorted(per_treatment)
            for g in groups:
                per = per_treatment[g.label]
                assert g.values == tuple(per[pid] for pid in sorted(per))
