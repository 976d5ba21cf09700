import math
import random
from collections import Counter

import pytest

from predscore.actions import SquareId
from predscore.board import BoardConfig
from predscore.dataset import (
    CUSTOM,
    ActionManifest,
    ExperimentBundle,
    ParticipantModel,
    _csv_text,
    generate_synthetic_experiment,
)
from predscore.errors import ValidationError
from predscore.metrics import PredictionRecord, score_dataset, score_table
from predscore.oracle import AgentSpec
from predscore.values import DecisionValues
from predscore.report import (
    SAMPLES_HEADER,
    SPACES,
    build_metrics_table,
    five_number_summary,
    grade_distribution,
    participant_loss_sums,
    render_boxplot_svg,
    render_metrics_csv,
    render_metrics_markdown,
    render_samples_csv,
    render_vote_matrix_csv,
    render_vote_svg,
    vote_matrix,
)


def score(bundle):
    return score_table(bundle.values_by_decision())


def metrics_table(bundle):
    return build_metrics_table(bundle, bundle.vote_counts(), score(bundle))


@pytest.fixture(scope="module")
def bundle():
    return generate_synthetic_experiment(
        config=BoardConfig(9, 4, 4),
        agents=[AgentSpec(oracle="sampled", rollouts=24, seed=17)],
        participants=24,
        treatments=["NONE", "OTB", "BTW", "STT"],
        behavior=ParticipantModel(rank_probs=(0.4, 0.2, 0.1, 0.1, 0.1, 0.1)),
        seed=99,
        decisions_per_agent=4,
    )


class TestMetricsTable:
    def test_column_layout(self, bundle):
        table = metrics_table(bundle)
        assert len(table.rows) == 4
        # 5 LV columns, 5 LR columns, 4 overlap columns
        assert len(table.columns) == 5 + 5 + 4
        assert table.columns[0] == "mean_lv_all"
        assert table.columns[-1] == "mrbo_P4"

    def test_cells_recomputable_from_library(self, bundle):
        samples = score_dataset(list(bundle.predictions), bundle.values_by_decision())
        table = metrics_table(bundle)
        for treatment, cells in table.rows:
            mine = [s.lv for s in samples if s.treatment == treatment]
            assert cells[0] == math.fsum(mine) / len(mine)
            mine = [s.lr for s in samples if s.treatment == treatment and s.decision_id == "P2"]
            assert cells[table.columns.index("mean_lr_P2")] == math.fsum(mine) / len(mine)

    def test_best_markers_cover_every_column(self, bundle):
        table = metrics_table(bundle)
        marked = set()
        for best in table.best_in_column():
            marked.update(best)
        assert marked == set(table.columns)

    def test_csv_and_markdown_render(self, bundle):
        table = metrics_table(bundle)
        csv_text = render_metrics_csv(table)
        assert csv_text.startswith("treatment,mean_lv_all")
        assert len(csv_text.strip().splitlines()) == 1 + len(table.rows)
        md = render_metrics_markdown(table)
        assert md.count("|") > 10
        assert "**" in md  # best cells are bolded


class TestEightTreatmentLayout:
    def test_eight_rows_fourteen_columns(self):
        bundle = generate_synthetic_experiment(
            config=BoardConfig(9, 4, 4),
            agents=[AgentSpec(oracle="sampled", rollouts=8, seed=5)],
            participants=32,
            treatments=["NONE", "STT", "OTB", "BTW", "STT+OTB", "OTB+BTW", "STT+BTW", "ALL"],
            behavior=ParticipantModel(rank_probs=(0.5, 0.3, 0.2)),
            seed=5,
            decisions_per_agent=4,
        )
        table = metrics_table(bundle)
        assert len(table.rows) == 8
        assert len(table.columns) == 14


class TestGradeDistribution:
    def test_counts_conserve_samples(self, bundle):
        distribution = grade_distribution(bundle, bundle.vote_counts(), score(bundle))
        total = sum(
            count
            for per_treatment in distribution.values()
            for counts in per_treatment.values()
            for count in counts.values()
        )
        assert total == len(bundle.predictions)


class TestLossSums:
    def test_group_sizes(self, bundle):
        groups = participant_loss_sums(bundle, score(bundle))["value"]
        assert [g.label for g in groups] == ["BTW", "NONE", "OTB", "STT"]
        assert all(len(g.values) == 6 for g in groups)

    def test_rank_space_sums_are_integers(self, bundle):
        for g in participant_loss_sums(bundle, score(bundle))["rank"]:
            assert all(v == int(v) for v in g.values)

    def test_one_walk_gives_both_spaces(self, bundle):
        by_space = participant_loss_sums(bundle, score(bundle))
        assert tuple(by_space) == SPACES == ("value", "rank")
        by_value, by_rank = by_space.values()
        assert [g.label for g in by_value] == [g.label for g in by_rank]
        assert [len(g.values) for g in by_value] == [len(g.values) for g in by_rank]
        assert by_value != by_rank

    def test_only_the_spaces_asked_for_are_summed(self, bundle):
        both = participant_loss_sums(bundle, score(bundle))
        for space in SPACES:
            assert participant_loss_sums(bundle, score(bundle), (space,)) == {space: both[space]}

    def test_an_overflowing_total_is_refused_in_its_space_only(self):
        values = DecisionValues("P1", {"a": 1e308, "b": 0.0}, "a")
        tables = (values, values._replace(decision_id="P2"))
        bundle = ExperimentBundle(
            ActionManifest("big", CUSTOM, (("a", "a"), ("b", "b"))), tables,
            [PredictionRecord("p1", "T", d, a) for d, a in (("P1", "a"), ("P2", "a"))]
            + [PredictionRecord("p2", "T", d, "b") for d in ("P1", "P2")], ("T",))
        scores = score_table(bundle.values_by_decision())
        assert participant_loss_sums(bundle, scores, ("rank",))["rank"][0].values == (0.0, 2.0)
        with pytest.raises(ValidationError, match="^the value-space loss sum of participant 'p2' "
                                                  "in treatment 'T' overflows$"):
            participant_loss_sums(bundle, scores)

    def test_a_listed_treatment_that_no_record_names_is_an_empty_group(self, bundle):
        listed = bundle._replace(treatments=(*bundle.treatments, "ALL"))
        for space, groups in participant_loss_sums(listed, score(bundle)).items():
            assert [g.label for g in groups] == ["ALL", "BTW", "NONE", "OTB", "STT"]
            assert groups[0].values == ()
            assert groups[1:] == participant_loss_sums(bundle, score(bundle))[space]

    @staticmethod
    def per_sample_loss_sums(samples, space):
        """Reference: one dict update per sample, added in sample order."""
        sums = {}
        for s in samples:
            per = sums.setdefault(s.treatment, {})
            per[s.participant_id] = per.get(s.participant_id, 0.0) + (
                s.lv if space == "value" else float(s.lr)
            )
        return [
            (treatment, tuple(per[pid] for pid in sorted(per)))
            for treatment, per in sorted(sums.items())
        ]

    @pytest.mark.parametrize("space", ["value", "rank"])
    def test_sums_equal_per_sample_reference_in_any_order(self, bundle, space):
        """Totals add in (participant, decision) order, the order of
        score_dataset's samples, however the records are ordered."""
        samples = score_dataset(list(bundle.predictions), bundle.values_by_decision())
        expected = self.per_sample_loss_sums(samples, space)
        records = list(bundle.predictions)
        rng = random.Random(5)
        for _ in range(5):
            groups = participant_loss_sums(bundle._replace(predictions=records), score(bundle))
            assert [(g.label, g.values) for g in groups[space]] == expected
            records = rng.sample(records, len(records))


class TestRecordOrder:
    """The loss sums and samples.csv walk the records in one order, by
    participant and then decision id, whatever order the records come in."""

    # values.csv order P1, P2, P10; decision-id order P1, P10, P2.  Each
    # decision's losses are 0.1, 0.2 and 0.3, whose float sum depends on the
    # order of addition: (0.2 + 0.3) + 0.1 != (0.2 + 0.1) + 0.3.
    VALUES = {
        d: DecisionValues(d, {"a": 0.0, "b": -0.1, "c": -0.2, "d": -0.3}, "a")
        for d in ("P1", "P2", "P10")
    }
    # p1 is listed under two treatments; p10 sorts before p2.
    RECORDS = [
        PredictionRecord(pid, treatment, d, action)
        for pid, treatment, plan in [
            ("p1", "A", {"P1": "c", "P2": "b", "P10": "d"}),
            ("p1", "B", {"P11": "c", "P3": "b", "P20": "d"}),
            ("p2", "A", {"P1": "d", "P2": "c", "P10": "b"}),
            ("p10", "B", {"P11": "c", "P3": "d", "P20": "b"}),
        ]
        for d, action in plan.items()
    ]

    @classmethod
    def tables(cls):
        tables = dict(cls.VALUES)
        for d in ("P3", "P11", "P20"):
            tables[d] = tables["P1"]._replace(decision_id=d)
        return tables

    @classmethod
    def scores(cls):
        return score_table(cls.tables())

    @classmethod
    def bundle(cls, records):
        actions = tuple((a, a) for a in "abcd")
        return ExperimentBundle(ActionManifest("order", CUSTOM, actions),
                                tuple(cls.tables().values()), tuple(records), ("A", "B"))

    @staticmethod
    def reference_sums(records, scores, field):
        """Each (treatment, participant) total, added left to right from 0.0
        in decision-id order."""
        losses = {}
        for pid, treatment, d, action in records:
            losses.setdefault(treatment, {}).setdefault(pid, []).append(
                (d, scores[d][action][field]))
        sums = []
        for treatment in sorted(losses):
            totals = []
            for pid in sorted(losses[treatment]):
                total = 0.0
                for _, loss in sorted(losses[treatment][pid]):
                    total += loss
                totals.append(total)
            sums.append((treatment, tuple(totals)))
        return sums

    def test_shuffled_records_give_the_same_sums_and_samples(self):
        scores = self.scores()
        expected = {field: self.reference_sums(self.RECORDS, scores, field) for field in (0, 1)}
        # p1's totals differ from the sums in values.csv order
        assert expected[0][0][1][0] == expected[0][1][1][0] != 0.2 + 0.1 + 0.3
        rows = [(*r, *scores[r.decision_id][r.predicted])
                for r in sorted(self.RECORDS, key=lambda r: (r.participant_id, r.decision_id))]
        expected_csv = _csv_text(SAMPLES_HEADER, rows)
        rng = random.Random(11)
        records = list(self.RECORDS)
        for _ in range(20):
            records = rng.sample(records, len(records))
            by_value, by_rank = participant_loss_sums(self.bundle(records), scores).values()
            assert [(g.label, g.values) for g in by_value] == expected[0]
            assert [(g.label, g.values) for g in by_rank] == expected[1]
            assert "".join(render_samples_csv(records, scores)) == expected_csv


class TestFiveNumber:
    def test_known_quartiles(self):
        assert five_number_summary([1, 2, 3, 4, 5]) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_single_value(self):
        assert five_number_summary([2.5]) == (2.5, 2.5, 2.5, 2.5, 2.5)

    def test_quartiles_match_numpy_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        import random

        rng = random.Random(8)
        samples = [[1.0], [3.0, -1.0], [0.1, 0.2, 0.7], [2, 2, 2, 5], [4, 1, 4, 4, 1, 9]]
        for _ in range(300):
            n = rng.randint(1, 60)
            kind = rng.choice(("uniform", "ties", "tiny"))
            if kind == "uniform":
                samples.append([rng.uniform(-50, 50) for _ in range(n)])
            elif kind == "ties":
                samples.append([float(rng.randint(0, 4)) for _ in range(n)])
            else:
                samples.append([rng.uniform(0, 1e-12) for _ in range(n)])
        for values in samples:
            arr = np.asarray(sorted(values), dtype=float)
            expected = tuple(float(np.percentile(arr, q)) for q in (25, 50, 75))
            assert five_number_summary(values)[1:4] == expected, values


class TestVotes:
    def test_matrix_conserves_votes(self, bundle):
        grid = vote_matrix(bundle, bundle.vote_counts(), "P1")
        total = sum(v for row in grid for v in row)
        assert total == sum(1 for r in bundle.predictions if r.decision_id == "P1")

    def test_matrix_shape(self, bundle):
        grid = vote_matrix(bundle, bundle.vote_counts(), "P1")
        assert len(grid) == 4
        assert all(len(row) == 9 for row in grid)

    def test_treatment_matrices_partition_pooled(self, bundle):
        pooled = vote_matrix(bundle, bundle.vote_counts(), "P1")
        per = [vote_matrix(bundle, bundle.vote_counts(), "P1", t) for t in bundle.treatments]
        for r in range(4):
            for c in range(9):
                assert pooled[r][c] == sum(grid[r][c] for grid in per)

    def test_single_square_votes(self, bundle):
        grid = vote_matrix(bundle, bundle.vote_counts(), "P1", "NONE")
        csv_text = render_vote_matrix_csv(grid, 9)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "row,A,B,C,D,E,F,G,H,I"
        assert len(lines) == 5

    def test_unknown_decision_rejected(self, bundle):
        with pytest.raises(ValidationError):
            vote_matrix(bundle, bundle.vote_counts(), "P9")

    def test_vote_counts_hold_every_cell_and_every_prediction(self, bundle):
        counts = bundle.vote_counts()
        cells = [(t, dv.decision_id) for t in bundle.treatments for dv in bundle.decisions]
        assert list(counts) == cells
        expected = Counter((r.treatment, r.decision_id, r.predicted) for r in bundle.predictions)
        flat = {(t, d, a): n for (t, d), votes in counts.items() for a, n in votes.items()}
        assert flat == expected

    def test_listed_treatment_without_predictions_is_refused(self, bundle):
        extra = ExperimentBundle(bundle.manifest, bundle.decisions, bundle.predictions,
                                 bundle.treatments + ("EMPTY",))
        with pytest.raises(ValidationError, match="'EMPTY' has no predictions for decision 'P1'"):
            metrics_table(extra)

    def test_counts_match_per_prediction_reference(self, bundle):
        for treatment in (None, *bundle.treatments):
            expected = [[0] * 9 for _ in range(4)]
            for rec in bundle.predictions:
                if rec.decision_id == "P2" and treatment in (None, rec.treatment):
                    sq = SquareId.parse(rec.predicted)
                    expected[sq.row][sq.col] += 1
            assert vote_matrix(bundle, bundle.vote_counts(), "P2", treatment) == expected


class TestSvg:
    def test_vote_svg_is_deterministic_and_annotated(self, bundle):
        grid = vote_matrix(bundle, bundle.vote_counts(), "P1")
        chosen = SquareId.parse(bundle.decisions[0].chosen)
        a = render_vote_svg(grid, chosen)
        b = render_vote_svg(grid, chosen)
        assert a == b
        assert a.startswith("<svg")
        assert "#d62728" in a  # chosen-square outline

    def test_boxplot_svg_renders(self, bundle):
        svg = render_boxplot_svg(participant_loss_sums(bundle, score(bundle))["value"])
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 4
