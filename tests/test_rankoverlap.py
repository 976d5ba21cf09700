import itertools
import random
from collections import Counter

import pytest

from bruteforce import series_mrbo, series_rbo
from predscore.errors import ValidationError
from predscore.rankoverlap import (
    agent_ranklist,
    mrbo_ext,
    mrbo_table,
    rbo_ext,
    vote_ranklist,
)
from predscore.values import DecisionValues

T36 = tuple(f"t{i:02d}" for i in range(1, 37))


def votes(*counts):
    """One group's vote count from (action, how many participants predicted it)."""
    tally = Counter()
    for action, count in counts:
        tally[action] += count
    return dict(tally)


class TestAgentRanklist:
    def test_sorts_by_descending_value(self):
        dv = DecisionValues("d", {"A1": 0.3, "B1": 0.5, "C1": 0.1}, chosen="B1")
        assert agent_ranklist(dv) == ("B1", "A1", "C1")

    def test_four_towers_order(self):
        dv = DecisionValues(
            "DP1", {"NE": 31.0, "NW": -28.0, "SE": -284.0, "SW": -313.0}, chosen="NE"
        )
        assert agent_ranklist(dv) == ("NE", "NW", "SE", "SW")

    def test_all_equal_falls_back_to_canonical_order(self):
        # canonical square order is (col, row): A1, A2, then B1
        dv = DecisionValues("d", {"B1": 0.5, "A2": 0.5, "A1": 0.5}, chosen="A1")
        assert agent_ranklist(dv) == ("A1", "A2", "B1")


class TestVoteRanklist:
    def test_single_recipient(self):
        assert vote_ranklist(votes(("F2", 10))) == ("F2",)

    def test_two_recipients_by_count(self):
        group = votes(("E2", 7), ("C3", 3))
        assert vote_ranklist(group) == ("E2", "C3")

    def test_zero_vote_actions_never_appear(self):
        group = votes(("E2", 2), ("A1", 0))
        assert "A1" not in vote_ranklist(group)

    def test_count_ties_break_canonically(self):
        group = votes(("B1", 2), ("A1", 2))
        assert vote_ranklist(group) == ("A1", "B1")

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            vote_ranklist({})


class TestRboExt:
    def test_identical_lists_score_one(self):
        for p in (0.3, 0.5, 0.9, 0.98):
            for k in (1, 4, 10):
                lst = T36[:k]
                assert rbo_ext(lst, lst, p, k) == pytest.approx(1.0, abs=1e-12)

    def test_identical_top_k_scores_exactly_one(self):
        for p in (0.5, 0.8, 0.9, 0.95):
            for k in range(1, 37):
                assert rbo_ext(T36[:k] + ("s",), T36[:k] + ("t",), p, k) == 1.0, (k, p)

    def test_disjoint_lists_score_zero(self):
        assert rbo_ext(["a", "b"], ["c", "d"], 0.9, 2) == 0.0

    def test_top_vote_against_full_list(self):
        # Frozen by direct series evaluation before implementation.
        assert rbo_ext([T36[0]], T36, 0.9, 36) == pytest.approx(0.2559623756035608, abs=1e-12)

    def test_matches_series_evaluator(self):
        rng = random.Random(4)
        universe = [f"e{i}" for i in range(15)]
        for _ in range(300):
            s = rng.sample(universe, rng.randint(1, 10))
            t = rng.sample(universe, rng.randint(1, 10))
            p = rng.uniform(0.05, 0.95)
            k = rng.randint(1, 12)
            assert rbo_ext(s, t, p, k) == pytest.approx(series_rbo(s, t, p, k), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            rbo_ext([], ["a"], 0.9, 1)
        with pytest.raises(ValidationError):
            rbo_ext(["a"], ["b"], 1.0, 1)
        with pytest.raises(ValidationError):
            rbo_ext(["a", "a"], ["b"], 0.9, 1)
        with pytest.raises(ValidationError):
            rbo_ext(["a"], ["b"], 0.9, 0)


class TestMrboExt:
    def test_prefix_scores_one(self):
        for p in (0.5, 0.9, 0.98):
            for cut in (1, 2, 5, 17, 35):
                assert mrbo_ext(T36[:cut], T36, p) == pytest.approx(1.0, abs=1e-12)

    def test_prefix_scores_exactly_one_over_the_grid(self):
        # Summing the weights rounds: without the full-agreement exit 2,314 of
        # these are off 1.0, and 474 of them exceed it.
        for p in (0.5, 0.8, 0.9, 0.95):
            for a in range(1, 37):
                for b in range(1, 37):
                    assert mrbo_ext(T36[:a], T36[:b], p) == 1.0, (a, b, p)

    def test_best_plus_third_vote_pattern(self):
        # Votes on the top and third-best actions of a 36-action ordering;
        # value frozen by direct series evaluation before implementation.
        assert mrbo_ext([T36[0], T36[2]], T36, 0.9) == pytest.approx(0.955, abs=0.0005)
        assert mrbo_ext([T36[0], T36[2]], T36, 0.9) == pytest.approx(
            series_mrbo([T36[0], T36[2]], T36, 0.9), abs=1e-12
        )

    def test_disjoint_lists_score_zero(self):
        assert mrbo_ext(["a", "b"], ["c", "d", "e"], 0.9) == 0.0

    def test_characteristic_small_vote_patterns(self):
        # Two-element vote lists against a 4-action ordering at p = 0.9
        # land on a small set of characteristic scores; frozen from the
        # series evaluator.
        t4 = ("q1", "q2", "q3", "q4")
        cases = {
            ("q1", "q2"): 1.0,    # top-two votes in agent order: prefix
            ("q1", "q3"): 0.955,  # best and third-best
            ("q2", "q1"): 0.9,    # top two, swapped
            ("q3", "q1"): 0.855,  # third-best first
        }
        for s, expected in cases.items():
            got = mrbo_ext(list(s), t4, 0.9)
            assert got == pytest.approx(expected, abs=1e-12)
            assert got == pytest.approx(series_mrbo(list(s), t4, 0.9), abs=1e-12)

    def test_argument_order_is_irrelevant(self):
        rng = random.Random(5)
        universe = [f"e{i}" for i in range(12)]
        for _ in range(100):
            s = rng.sample(universe, rng.randint(1, 8))
            t = rng.sample(universe, rng.randint(1, 8))
            assert mrbo_ext(s, t, 0.85) == mrbo_ext(t, s, 0.85)

    def test_bounded_by_unit_interval(self):
        rng = random.Random(6)
        universe = [f"e{i}" for i in range(12)]
        for _ in range(300):
            s = rng.sample(universe, rng.randint(1, 12))
            t = rng.sample(universe, rng.randint(1, 12))
            score = mrbo_ext(s, t, rng.uniform(0.05, 0.95))
            assert 0.0 <= score <= 1.0 + 1e-12

    def test_dominates_rbo_and_matches_at_equal_length(self):
        rng = random.Random(7)
        universe = [f"e{i}" for i in range(14)]
        for _ in range(500):
            ls = rng.randint(1, 10)
            lt = rng.randint(ls, 10)
            s = rng.sample(universe, ls)
            t = rng.sample(universe, lt)
            p = rng.uniform(0.1, 0.95)
            m = mrbo_ext(s, t, p)
            r = rbo_ext(s, t, p, lt)
            assert m >= r - 1e-12
            if ls == lt:
                assert m == pytest.approx(r, abs=1e-12)

    def test_one_iff_prefix_exhaustively(self):
        universe = "abcdef"
        all_lists = [
            list(candidate)
            for length in range(1, 7)
            for candidate in itertools.permutations(universe, length)
        ]
        for t_len in (1, 3, 6):
            t = list(universe[:t_len])
            for s in all_lists:
                score = mrbo_ext(s, t, 0.9)
                assert score == pytest.approx(series_mrbo(s, t, 0.9), abs=1e-12)
                shorter, longer = (s, t) if len(s) <= len(t) else (t, s)
                is_prefix = longer[: len(shorter)] == list(shorter)
                if is_prefix:
                    assert score == pytest.approx(1.0, abs=1e-12)
                else:
                    assert score < 1.0 - 1e-9

    def test_invariant_under_relabeling(self):
        rng = random.Random(8)
        universe = [f"e{i}" for i in range(10)]
        relabel = {u: f"x{i}" for i, u in enumerate(universe)}
        for _ in range(100):
            s = rng.sample(universe, rng.randint(1, 8))
            t = rng.sample(universe, rng.randint(1, 8))
            p = rng.uniform(0.1, 0.95)
            assert mrbo_ext(s, t, p) == mrbo_ext([relabel[a] for a in s], [relabel[a] for a in t], p)
            assert rbo_ext(s, t, p, 8) == rbo_ext(
                [relabel[a] for a in s], [relabel[a] for a in t], 0.0 + p, 8
            )


class TestMrboTable:
    def make_inputs(self, treatments=8, decisions=4):
        rng = random.Random(9)
        value_tables = {}
        for d in range(decisions):
            entries = {a: rng.uniform(-1, 1) for a in T36}
            chosen = max(entries, key=entries.get)
            value_tables[f"P{d + 1}"] = DecisionValues(f"P{d + 1}", entries, chosen)
        counts = {}
        for g in range(treatments):
            for d in range(decisions):
                dv = value_tables[f"P{d + 1}"]
                pool = list(dv.entries)
                counts[(f"G{g}", dv.decision_id)] = votes(
                    (rng.choice(pool), 3), (rng.choice(pool), 2)
                )
        return counts, value_tables

    def test_cell_count(self):
        counts, tables = self.make_inputs()
        table = mrbo_table(counts, tables)
        assert len(table) == 8 * 4
        assert all(0.0 <= v <= 1.0 for v in table.values())

    def test_all_votes_on_chosen_score_one(self):
        _, tables = self.make_inputs(treatments=1, decisions=2)
        loyal = {("G0", dv.decision_id): votes((dv.chosen, 5)) for dv in tables.values()}
        table = mrbo_table(loyal, tables)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in table.values())

    def test_missing_group_rejected(self):
        counts, tables = self.make_inputs(treatments=2, decisions=2)
        counts[("G0", "P1")] = {}
        with pytest.raises(ValidationError):
            mrbo_table(counts, tables)
        del counts[("G0", "P1")]
        with pytest.raises(ValidationError):
            mrbo_table(counts, tables)

    def test_deterministic_iteration_order(self):
        counts, tables = self.make_inputs(treatments=3, decisions=2)
        reordered = dict(reversed(list(counts.items())))
        assert list(mrbo_table(counts, tables)) == list(mrbo_table(reordered, tables))


# (s, t, p, k, rbo_ext(s, t, p, k).hex(), mrbo_ext(s, t, p).hex()), lists
# space-separated.  Recorded from the two separate loops that preceded the
# shared recurrence; compared bit for bit, since a last-bit drift here is a
# changed mRBO cell in the CLI's reports.  The cases cover equal and unequal
# lengths, k below, between and above the lengths, and identical,
# permuted, prefix and disjoint lists.
GOLDEN = [
    ("H2", "H2", 0.9, 1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("F4 E2 C1 C4", "F4 E2 C1 C4", 0.5, 4, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("A1 F2 I1 H2", "A1 F2 H2 I1", 0.98, 2, "0x1.0000000000000p+0", "0x1.fcb8ca281e73cp-1"),
    ("C3 H1 G4 D4", "C3 D4 G4 H1", 0.1, 7, "0x1.e769bc3d8e996p-1", "0x1.e76c8b4395811p-1"),
    ("G1", "G1 B3 E3 D2 D3 F4 G2 I1 A3", 0.75, 9, "0x1.db7efc57c57c5p-2", "0x1.0000000000000p+0"),
    ("E2 D2 G2", "E2 D2 G2 I4 F2 I2 A2 B3 F3", 0.999, 5,
     "0x1.33e3ee58cea9dp-1", "0x1.0000000000000p+0"),
    ("A1 G3", "A1 G3 A4 G1 H4 B1 I4", 0.3, 1, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("D4 G4 B4 A1 I2 G1 E3 B3 I3", "D4 G4 B4", 0.9, 12,
     "0x1.193237da98e95p-1", "0x1.0000000000000p+0"),
    ("D1 F2 A1", "B2 C1 E2", 0.5, 3, "0x0.0p+0", "0x0.0p+0"),
    ("A2 I1", "B2 H4 D1 D2 A3 I3", 0.98, 4, "0x0.0p+0", "0x0.0p+0"),
    ("D1 B2 C2 C4 A3", "A2", 0.1, 8, "0x0.0p+0", "0x0.0p+0"),
    ("I4", "H4 E2 G4 I4 B4 D1 C2 A3", 0.75, 3, "0x0.0p+0", "0x1.b000000000000p-2"),
    ("H4 H3", "F4 E3 H1 I4 A1 G2 D2 H3", 0.999, 1, "0x0.0p+0", "0x1.fc6d3e72229bcp-2"),
    ("G1 A1 B3", "G2 E4 D1 B3 B2 G1 A4 E3", 0.3, 2, "0x0.0p+0", "0x1.41743e963dc48p-7"),
    ("C1 C3 A2", "F4 A1 C1 I4 H1 G3 E3 A2", 0.9, 5, "0x1.695bff04577dap-3", "0x1.b7bd19d1625dep-2"),
    ("C1 I3 E3", "E3 D4 E2 A1 B1 I3 F3 A3", 0.5, 8, "0x1.2abe2be2be2bep-4", "0x1.8000000000001p-4"),
    ("H4 F3 B3", "E2 B3 F3 B1 G2 A4 C1 E1", 0.98, 11,
     "0x1.9b087b9eefa4ap-3", "0x1.47d108541ac2ap-1"),
    ("G4 H3 E2 E1 F3", "B1 E1 C4 E2 A1 C2 B2 I1 D2 E3 H3 F3", 0.1, 7,
     "0x1.0086d1214b6cep-11", "0x1.00e6b08e655e4p-11"),
    ("H2 E4 A3 D4 H1 A2 D3 I4", "H1 F4", 0.75, 10, "0x1.7d22492492491p-5", "0x1.4400000000000p-3"),
    ("E2 B1 A3 B2 D4 F3", "I1 A2 H4 D4 G1 B2", 0.999, 6,
     "0x1.53d584dd902ffp-2", "0x1.53d584dd902ffp-2"),
    ("G4 D3 H3 A3 F3 C1", "G4 I2 C1 H3 D3 A4", 0.3, 3,
     "0x1.ab851eb851eb8p-1", "0x1.ae525892684cfp-1"),
    ("A1 I4 E4 D3 D1 H4", "A1 I3 I4 I2 A4 D2", 0.9, 9,
     "0x1.9de0cb18e1473p-2", "0x1.d58750c1b9735p-2"),
    (
        "D3 B3 F3 D2 H4 B1 B4 A2 E4 B2",
        "H3 A2 C1 G1 H4 B1 I4 F1 D3 G2 C4 B2 H1 A3 D4 A4 F2 E3 "
        "D1 A1 G3 B4 I3 E4 I1 E1 F3 F4 I2 C2 B3 E2 C3 H2 D2 G4",
        0.5, 36, "0x1.12f1b42b73692p-6", "0x1.1420c3bced4edp-6",
    ),
    (
        "I4 H4 H3 G1 H2 A3 C3 I1 F1 E1 G4 B4 D4 A4 B2 C1 B3 F3 "
        "G3 C2 E3 E2 H1 B1 A1 D2 A2 F4 E4 D3 I2 I3 D1 G2 C4 F2",
        "G3 A3 A2 D1",
        0.98, 20, "0x1.6ecefed91376bp-4", "0x1.5b6f51ce448c9p-1",
    ),
    ("E1 E2 B2 C3 I4 I1 D4", "H1 E1 A1 C1 F3 C3 G2 I1 E2", 0.1, 8,
     "0x1.8b3bd0349db53p-5", "0x1.8b3bd3d93ccdep-5"),
    ("D4 B1", "A3 B1", 0.75, 2, "0x1.8000000000000p-2", "0x1.8000000000000p-2"),
    ("H4 B1 C2 H2", "A2 H2 I3 D4 G3 B1 H4 C4 C2 B2 F2", 0.999, 4,
     "0x1.fe772d5570166p-3", "0x1.fd30efa830bacp-1"),
    ("G3 D3 G4 A4 B4 C2 I3 E4 B2 I2 H2 C1", "A1 E4 I2 B3 B4", 0.3, 5,
     "0x1.a8ac5c13fd0d0p-10", "0x1.b52be1d4479fbp-10"),
    (
        "I2",
        "C1 H4 A3 G4 E4 F4 A2 F3 A1 E3 F2 D3 A4 G2 E2 I2 B2 G1 "
        "I4 E1 I3 I1 H1 H3 B1 D4 G3 D2 C3 C2 D1 C4 H2 B3 F1 B4",
        0.9, 40, "0x1.2d41cf9bdbc4dp-7", "0x1.a5aa3ff7103fap-3",
    ),
    ("A3 D2 I1 H3 G2 F3 B2 B1 E1", "G4 B1 D1 A3 B2 H3 G2 F3 D2", 0.5, 30,
     "0x1.31340ecac5977p-5", "0x1.3353b53b53b54p-5"),
]


@pytest.mark.parametrize(
    "s,t,p,k,rbo_hex,mrbo_hex", GOLDEN, ids=[f"case{i}" for i in range(len(GOLDEN))]
)
def test_golden_values_bit_for_bit(s, t, p, k, rbo_hex, mrbo_hex):
    s, t = s.split(), t.split()
    assert rbo_ext(s, t, p, k).hex() == rbo_hex
    assert mrbo_ext(s, t, p).hex() == mrbo_hex
    assert mrbo_ext(t, s, p).hex() == mrbo_hex
