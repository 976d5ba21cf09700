import math
import random
from fractions import Fraction

import pytest

from bruteforce import brute_force_triples, k_windows
from predscore import oracle
from predscore.actions import SquareId
from predscore.board import (
    AGENT,
    ONGOING,
    OPPONENT,
    Board,
    BoardConfig,
    apply_move,
    game_status,
    new_game,
)
from predscore.errors import ValidationError
from predscore.oracle import (
    EXHAUSTIVE_LIMIT,
    AgentSpec,
    Mutation,
    exact_outcome_triples,
    sampled_outcome_triples,
    value_oracle,
)
from predscore.values import DecisionValues, ranked

TTT = BoardConfig(3, 3, 3)

# Uniform-random-play outcome fractions for the empty 3-3-3 board, computed
# by replaying all 9! move orderings with an independent enumerator.
EMPTY_TTT_TRIPLES = {
    "corner": (Fraction(17, 28), Fraction(37, 140), Fraction(9, 70)),
    "edge": (Fraction(15, 28), Fraction(47, 140), Fraction(9, 70)),
    "center": (Fraction(97, 140), Fraction(27, 140), Fraction(4, 35)),
}


def board_to_codes(board):
    return tuple(
        0 if cell is None else (1 if cell == AGENT else 2) for cell in board.cells()
    )


def play(config, moves):
    board = new_game(config)
    for text in moves:
        board = apply_move(board, SquareId.parse(text))
    return board


def assert_matches_brute_force(board):
    """Exact triples equal the brute-force enumeration, and the oracle's
    floats are the correctly rounded Fractions, bit for bit."""
    cfg = board.config
    mover = 1 if board.to_move == AGENT else 2
    expected = brute_force_triples(cfg.m, cfg.n, cfg.k, board_to_codes(board), mover)
    got = exact_outcome_triples(board)
    assert {cfg.index(sq) for sq in got} == set(expected)
    dv = value_oracle(board, AgentSpec(), "x")
    for sq, triple in got.items():
        assert triple == expected[cfg.index(sq)]
        win, loss, draw = (float(f) for f in triple)
        outcome = dv.outcomes[sq.text]
        assert [v.hex() for v in (outcome.win, outcome.loss, outcome.draw)] == [
            v.hex() for v in (win, loss, draw)
        ]
        assert dv.entries[sq.text].hex() == (win - loss).hex()
    return got


class TestExhaustiveOracle:
    def test_empty_board_matches_frozen_enumeration(self):
        triples = exact_outcome_triples(new_game(TTT))
        kind = {
            (0, 0): "corner", (2, 0): "corner", (0, 2): "corner", (2, 2): "corner",
            (1, 0): "edge", (0, 1): "edge", (2, 1): "edge", (1, 2): "edge",
            (1, 1): "center",
        }
        for sq, triple in triples.items():
            assert triple == EMPTY_TTT_TRIPLES[kind[(sq.col, sq.row)]]

    def test_triples_sum_to_one_exactly(self):
        board = apply_move(new_game(TTT), SquareId(0, 0))
        for triple in exact_outcome_triples(board).values():
            assert sum(triple) == Fraction(1)

    def test_matches_brute_force_on_midgame_positions(self):
        rng = random.Random(5)
        for _ in range(6):
            board = new_game(TTT)
            for _ in range(4):
                empties = board.empty_squares()
                board = apply_move(board, empties[rng.randrange(len(empties))])
            if game_status(board).state != ONGOING:
                continue
            mover = 1 if board.to_move == AGENT else 2
            expected = brute_force_triples(3, 3, 3, board_to_codes(board), mover)
            got = exact_outcome_triples(board)
            for sq, triple in got.items():
                assert triple == expected[sq.row * 3 + sq.col]

    def test_immediate_win_square_is_certain(self):
        board = new_game(TTT)
        for sq in (SquareId(0, 0), SquareId(0, 1), SquareId(1, 0), SquareId(1, 1)):
            board = apply_move(board, sq)
        # Agent has A1, B1; C1 completes the row.
        triples = exact_outcome_triples(board)
        assert triples[SquareId(2, 0)] == (Fraction(1), Fraction(0), Fraction(0))

    def test_opponent_to_move_matches_brute_force(self):
        board = play(TTT, ["B2", "A1", "C3"])
        assert board.to_move == OPPONENT
        assert_matches_brute_force(board)

    def test_4x3_midgame_matches_brute_force(self):
        # Agent B2, C2 against opponent A1, D2: A2 completes the row at once.
        board = play(BoardConfig(4, 3, 3), ["B2", "A1", "C2", "D2"])
        assert len(board.empty_squares()) == 8
        triples = assert_matches_brute_force(board)
        assert triples[SquareId.parse("A2")] == (Fraction(1), Fraction(0), Fraction(0))
        board = apply_move(board, SquareId.parse("B1"))
        assert board.to_move == OPPONENT and len(board.empty_squares()) == 7
        assert_matches_brute_force(board)

    def test_single_empty_square_matches_brute_force(self):
        a, o = AGENT, OPPONENT
        # The last square of a drawn game: the move can only draw.
        board = Board.from_cells(TTT, [a, o, a, a, o, o, o, a, None], to_move=AGENT)
        triples = assert_matches_brute_force(board)
        assert triples == {SquareId(2, 2): (Fraction(0), Fraction(0), Fraction(1))}

    def test_immediate_win_matches_brute_force(self):
        for moves in (["A1", "A2", "B1", "B2"], ["A1", "A2", "B1", "B2", "C3"]):
            board = play(TTT, moves)
            triples = assert_matches_brute_force(board)
            winner = SquareId.parse("C1" if board.to_move == AGENT else "C2")
            assert triples[winner] == (Fraction(1), Fraction(0), Fraction(0))

    def test_memo_holds_one_board_shape(self):
        exact_outcome_triples(play(TTT, ["B2"]))
        ttt_table = oracle._memo[1]
        board = play(BoardConfig(4, 3, 3), ["B2", "A1", "C2", "D2"])
        exact_outcome_triples(board)
        shape, table = oracle._memo
        assert shape == (4, 3, 3)
        assert table is not ttt_table
        states = len(table)
        assert states > 0
        exact_outcome_triples(board)
        assert oracle._memo[1] is table
        assert len(table) == states

    def test_too_many_empties_rejected(self):
        board = new_game(BoardConfig(9, 4, 4))
        assert len(board.empty_squares()) > EXHAUSTIVE_LIMIT
        with pytest.raises(ValidationError):
            exact_outcome_triples(board)

    def test_finished_game_rejected(self):
        board = new_game(TTT)
        for col in range(3):
            board = apply_move(board, SquareId(col, 0))
            if col < 2:
                board = apply_move(board, SquareId(col, 2))
        with pytest.raises(ValidationError):
            exact_outcome_triples(board)


def stabilizer_size(board):
    cfg = board.config
    codes = board_to_codes(board)
    return sum(
        all(codes[perm[i]] == codes[i] for i in range(cfg.squares))
        for perm in oracle._symmetries(cfg.m, cfg.n)
    )


def brute_force_counts(m, n, k, packed, mover):
    """(mover win, mover loss, draw) counts over every ordering of the
    empty squares, from the brute-force per-first-move fractions."""
    cells = tuple((packed >> (2 * i)) & 3 for i in range(m * n))
    triples = brute_force_triples(m, n, k, cells, mover)
    per_first = math.factorial(len(triples) - 1)
    counts = tuple(sum(t[j] for t in triples.values()) * per_first for j in range(3))
    assert all(c.denominator == 1 for c in counts)
    return tuple(int(c) for c in counts)


class CountingMemo(dict):
    """A memo that counts lookups that miss, i.e. states evaluated."""

    misses = 0

    def get(self, key, default=None):
        hit = super().get(key, default)
        if hit is None:
            self.misses += 1
        return hit


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(oracle, "_memo", (None, {}))


class TestSymmetricMemo:
    @pytest.mark.parametrize(
        "m,n,k,count",
        [(3, 3, 3, 8), (4, 3, 3, 4), (4, 4, 4, 8), (9, 4, 4, 4), (7, 1, 3, 2), (2, 2, 1, 8)],
    )
    def test_symmetries_map_windows_onto_windows(self, m, n, k, count):
        perms = oracle._symmetries(m, n)
        assert perms[0] == tuple(range(m * n))
        assert len(perms) == len(set(perms)) == count
        windows = {frozenset(w) for w in k_windows(m, n, k)}
        for perm in perms:
            assert sorted(perm) == list(range(m * n))
            assert {frozenset(perm[i] for i in w) for w in windows} == windows

    @pytest.mark.parametrize(
        "shape,moves,size",
        [
            ((3, 3, 3), ["B2"], 8),
            ((3, 3, 3), ["B2", "A1"], 2),  # the main diagonal only
            ((4, 3, 3), ["B2", "A2", "C2", "D2"], 4),
            ((4, 3, 3), ["B2", "C2", "A2", "D2"], 2),  # the row flip only
            ((4, 3, 3), ["B2", "A1", "C2", "D2"], 1),
        ],
    )
    def test_matches_brute_force_for_each_stabilizer(self, fresh_memo, shape, moves, size):
        board = play(BoardConfig(*shape), moves)
        assert stabilizer_size(board) == size
        assert_matches_brute_force(board)

    def test_entries_hold_their_own_boards_counts(self, fresh_memo):
        exact_outcome_triples(new_game(BoardConfig(4, 3, 3)))
        entries = [
            (key, counts)
            for key, counts in oracle._memo[1].items()
            if sum(not (key[0] >> (2 * i)) & 3 for i in range(12)) <= 8
        ]
        entries.sort()
        for (packed, mover), counts in random.Random(7).sample(entries, 200):
            assert counts == brute_force_counts(4, 3, 3, packed, mover), (packed, mover)

    def test_memo_sizes_are_unchanged(self, fresh_memo):
        exact_outcome_triples(new_game(TTT))
        assert len(oracle._memo[1]) == 4519
        exact_outcome_triples(new_game(BoardConfig(4, 3, 3)))
        assert len(oracle._memo[1]) == 79562

    def test_empty_4x3_evaluates_each_symmetry_class_once(self, monkeypatch):
        memo = CountingMemo()
        monkeypatch.setattr(oracle, "_memo", ((4, 3, 3), memo))
        exact_outcome_triples(new_game(BoardConfig(4, 3, 3)))
        assert len(memo) == 79562
        assert memo.misses == 20087

    def test_later_position_reuses_the_empty_boards_entries(self, monkeypatch, fresh_memo):
        exact_outcome_triples(new_game(BoardConfig(4, 3, 3)))
        states = len(oracle._memo[1])
        board = play(BoardConfig(4, 3, 3), ["A1", "C2"])
        assert stabilizer_size(board) == 1
        warm = exact_outcome_triples(board)
        assert len(oracle._memo[1]) == states
        monkeypatch.setattr(oracle, "_memo", (None, {}))
        assert exact_outcome_triples(board) == warm


# (wins, losses, draws) per square, recorded from the ray-walking win test
# that preceded the window masks; a change in the rollouts' RNG draw order
# or win detection shows up here.
SAMPLED_GOLDEN = [
    (
        (5, 4, 4), ["B2", "C3"], 40, 17, None,
        {
            "A1": (13, 18, 9), "A2": (20, 16, 4), "A3": (12, 18, 10), "A4": (16, 18, 6),
            "B1": (17, 15, 8), "B3": (20, 7, 13), "B4": (18, 12, 10), "C1": (12, 14, 14),
            "C2": (21, 14, 5), "C4": (11, 18, 11), "D1": (13, 19, 8), "D2": (23, 13, 4),
            "D3": (16, 14, 10), "D4": (17, 13, 10), "E1": (12, 18, 10), "E2": (16, 19, 5),
            "E3": (13, 20, 7), "E4": (20, 9, 11),
        },
    ),
    (
        (4, 4, 3), ["B2", "C3", "B3", "A1"], 40, 23, 3,
        {
            "A2": (13, 3, 24), "A3": (8, 3, 29), "A4": (7, 2, 31), "B1": (40, 0, 0),
            "B4": (40, 0, 0), "C1": (16, 1, 23), "C2": (19, 2, 19), "C4": (10, 1, 29),
            "D1": (13, 4, 23), "D2": (14, 1, 25), "D3": (10, 3, 27), "D4": (9, 2, 29),
        },
    ),
    (
        (4, 4, 3), ["A1", "B2", "D4"], 30, 5, None,
        {
            "A2": (19, 11, 0), "A3": (22, 8, 0), "A4": (15, 15, 0), "B1": (15, 15, 0),
            "B3": (24, 6, 0), "B4": (19, 11, 0), "C1": (20, 10, 0), "C2": (26, 4, 0),
            "C3": (23, 7, 0), "C4": (20, 10, 0), "D1": (12, 18, 0), "D2": (17, 13, 0),
            "D3": (15, 15, 0),
        },
    ),
]


class TestSampledOracle:
    @pytest.mark.parametrize(
        "shape,moves,rollouts,seed,depth_limit,counts",
        SAMPLED_GOLDEN,
        ids=["5x4k4", "4x4k3-depth3", "4x4k3-opponent"],
    )
    def test_golden_values(self, shape, moves, rollouts, seed, depth_limit, counts):
        board = play(BoardConfig(*shape), moves)
        assert board.to_move == (OPPONENT if len(moves) % 2 else AGENT)
        triples = sampled_outcome_triples(board, rollouts, seed, depth_limit)
        assert {sq.text: t for sq, t in triples.items()} == {
            sq: tuple(c / rollouts for c in triple) for sq, triple in counts.items()
        }

    def test_inline_draw_takes_the_bits_randrange_takes(self):
        # The rollouts pick among n squares with getrandbits(n.bit_length()),
        # drawn again while >= n.  It must take the same bits as randrange(n),
        # or every sampled value would change: a Python release whose
        # randrange draws otherwise fails here.
        ours, reference = random.Random("pin"), random.Random("pin")
        sizes = random.Random(5)
        for _ in range(5000):
            n = sizes.choice((*range(1, 41), 64, 65, 1000, 2**31 + 1))
            bits = n.bit_length()
            pick = ours.getrandbits(bits)
            while pick >= n:
                pick = ours.getrandbits(bits)
            assert pick == reference.randrange(n), n
        assert ours.getstate() == reference.getstate()

    def test_deterministic_for_fixed_seed(self):
        board = new_game(BoardConfig(4, 4, 3))
        a = sampled_outcome_triples(board, rollouts=50, seed=11)
        b = sampled_outcome_triples(board, rollouts=50, seed=11)
        assert a == b
        c = sampled_outcome_triples(board, rollouts=50, seed=12)
        assert a != c

    def test_fractions_sum_to_one(self):
        board = new_game(BoardConfig(4, 4, 3))
        for win, loss, draw in sampled_outcome_triples(board, rollouts=40, seed=3).values():
            assert win + loss + draw == pytest.approx(1.0, abs=1e-12)

    def test_immediate_win_square_is_certain(self):
        board = new_game(TTT)
        for sq in (SquareId(0, 0), SquareId(0, 1), SquareId(1, 0), SquareId(1, 1)):
            board = apply_move(board, sq)
        triples = sampled_outcome_triples(board, rollouts=25, seed=1)
        assert triples[SquareId(2, 0)] == (1.0, 0.0, 0.0)

    def test_depth_limit_counts_as_draw(self):
        board = new_game(BoardConfig(5, 5, 4))
        triples = sampled_outcome_triples(board, rollouts=30, seed=2, depth_limit=1)
        # One ply beyond the evaluated move can never finish a 4-run here.
        for win, loss, draw in triples.values():
            assert draw == 1.0


class TestValueOracle:
    def test_entries_are_win_minus_loss(self):
        board = new_game(TTT)
        dv = value_oracle(board, AgentSpec(), "P1")
        exact = exact_outcome_triples(board)
        for sq, (win, loss, _) in exact.items():
            assert dv.entries[sq.text] == pytest.approx(float(win - loss), abs=1e-15)
            triple = dv.outcomes[sq.text]
            assert triple.win == pytest.approx(float(win), abs=1e-15)

    def test_mutation_zero_is_bit_exact(self):
        board = new_game(TTT)
        plain = value_oracle(board, AgentSpec(), "P1")
        muted = value_oracle(board, AgentSpec(mutation=Mutation(seed=9, magnitude=0.0)), "P1")
        assert plain.entries == muted.entries
        assert plain.chosen == muted.chosen

    def test_mutation_is_seed_deterministic(self):
        board = new_game(TTT)
        a = value_oracle(board, AgentSpec(mutation=Mutation(seed=9, magnitude=0.2)), "P1")
        b = value_oracle(board, AgentSpec(mutation=Mutation(seed=9, magnitude=0.2)), "P1")
        c = value_oracle(board, AgentSpec(mutation=Mutation(seed=10, magnitude=0.2)), "P1")
        assert a.entries == b.entries
        assert a.entries != c.entries

    def test_mutation_leaves_outcome_triples_alone(self):
        board = new_game(TTT)
        plain = value_oracle(board, AgentSpec(), "P1")
        muted = value_oracle(board, AgentSpec(mutation=Mutation(seed=9, magnitude=0.5)), "P1")
        assert plain.outcomes == muted.outcomes
        assert plain.entries != muted.entries

    def test_default_decision_id_counts_the_pieces(self):
        played = play(TTT, ["A1", "B2", "C3"])
        rebuilt = Board.from_cells(TTT, played.cells(), played.to_move)
        assert value_oracle(played, AgentSpec()).decision_id == "d4"
        assert value_oracle(rebuilt, AgentSpec()).decision_id == "d4"
        assert value_oracle(new_game(TTT), AgentSpec()).decision_id == "d1"

    def test_game_over_rejected(self):
        board = new_game(TTT)
        for col in range(3):
            board = apply_move(board, SquareId(col, 0))
            if col < 2:
                board = apply_move(board, SquareId(col, 2))
        with pytest.raises(ValidationError):
            value_oracle(board, AgentSpec())


class TestChooseAction:
    """The agent's chosen action is the first of values.ranked, the one
    ranking rule that a value table's order also comes from."""

    def test_argmax(self):
        entries = {"A1": 0.3, "B1": 0.5, "C1": 0.1}
        assert ranked(entries) == ("B1", "A1", "C1")
        assert DecisionValues("d", entries, chosen="B1").actions[0] == "B1"

    def test_all_equal_breaks_to_lowest_col_row(self):
        entries = {"B1": 0.5, "A2": 0.5, "A1": 0.5}
        assert ranked(entries) == ("A1", "A2", "B1")
        assert DecisionValues("d", entries, chosen="B1").actions[0] == "A1"
        # every square of a 2x2 k=1 board wins at once: four equal values
        values = value_oracle(new_game(BoardConfig(2, 2, 1)), AgentSpec())
        assert set(values.entries.values()) == {1.0}
        assert values.chosen == "A1"

    def test_single_square(self):
        assert ranked({"C2": -0.25}) == ("C2",)
        assert DecisionValues("d", {"C2": -0.25}, chosen="C2").actions == ("C2",)

    def test_invariant_under_constant_shift(self):
        rng = random.Random(7)
        squares = [SquareId(c, r).text for c in range(3) for r in range(3)]
        for _ in range(50):
            entries = {sq: rng.uniform(-1, 1) for sq in squares}
            shift = rng.uniform(-10, 10)
            shifted = {sq: v + shift for sq, v in entries.items()}
            assert ranked(entries)[0] == ranked(shifted)[0]

    def test_picks_certain_win_with_exhaustive_oracle(self):
        found = 0
        for seed in range(40):
            board = new_game(TTT)
            local = random.Random(seed)
            while game_status(board).state == ONGOING and board.piece_count < 6:
                empties = board.empty_squares()
                board = apply_move(board, empties[local.randrange(len(empties))])
            if game_status(board).state != ONGOING:
                continue
            triples = exact_outcome_triples(board)
            winning = [sq for sq, t in triples.items() if t[0] == 1]
            if not winning:
                continue
            found += 1
            dv = value_oracle(board, AgentSpec(), "x")
            assert dv.chosen == ranked(dv.entries)[0] == dv.actions[0]
            assert triples[SquareId.parse(dv.chosen)][0] == 1
        assert found > 0  # the sweep must actually exercise winning positions
