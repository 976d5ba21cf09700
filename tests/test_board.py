import random

import pytest

from bruteforce import k_windows, longest_run_through, winner
from predscore.actions import SquareId
from predscore.board import (
    AGENT,
    DRAW,
    ONGOING,
    OPPONENT,
    WIN,
    Board,
    BoardConfig,
    apply_move,
    game_status,
    new_game,
    window_table,
    wins,
)
from predscore.errors import ValidationError


def play_random(config, seed, plies=None):
    """Seeded random playout; returns every board along the way."""
    rng = random.Random(seed)
    board = new_game(config)
    boards = [board]
    while game_status(board).state == ONGOING:
        if plies is not None and board.piece_count >= plies:
            break
        empties = board.empty_squares()
        board = apply_move(board, empties[rng.randrange(len(empties))])
        boards.append(board)
    return boards


class TestConfig:
    def test_9x4_has_36_empty_squares(self):
        board = new_game(BoardConfig(9, 4, 4))
        assert len(board.empty_squares()) == 36
        assert game_status(board).state == ONGOING

    def test_3x3_has_9_empty_squares(self):
        assert len(new_game(BoardConfig(3, 3, 3)).empty_squares()) == 9

    def test_k_exceeding_both_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            BoardConfig(2, 2, 5)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            BoardConfig(0, 3, 1)

    def test_desk_scale_guard(self):
        with pytest.raises(ValidationError):
            BoardConfig(200, 51, 10)


class TestSquareId:
    def test_text_round_trip(self):
        assert SquareId(5, 1).text == "F2"
        assert SquareId.parse("F2") == SquareId(5, 1)

    def test_wide_columns(self):
        assert SquareId(26, 0).text == "AA1"
        assert SquareId.parse("AA1") == SquareId(26, 0)

    def test_parse_rejects_garbage(self):
        """parse reads only canonical text: no lower case, leading zeros or trailing newline."""
        for bad in ("", "F", "2F", "F0", "f2", "A01", "A1\n"):
            with pytest.raises(ValidationError, match="^not a square id: "):
                SquareId.parse(bad)


class TestApplyMove:
    def test_center_move_flips_turn(self):
        board = apply_move(new_game(BoardConfig(3, 3, 3)), SquareId(1, 1))
        assert board.piece_count == 1
        assert board.to_move == OPPONENT
        assert board.cell(SquareId(1, 1)) == AGENT

    def test_occupied_square_rejected(self):
        board = apply_move(new_game(BoardConfig(3, 3, 3)), SquareId(1, 1))
        with pytest.raises(ValidationError):
            apply_move(board, SquareId(1, 1))

    def test_out_of_bounds_rejected(self):
        board = new_game(BoardConfig(9, 4, 4))
        with pytest.raises(ValidationError):
            apply_move(board, SquareId(9, 9))


class TestGameStatus:
    def test_row_of_four_wins(self):
        board = new_game(BoardConfig(9, 4, 4))
        # Agent takes A1..D1, opponent replies on row 3.
        for col in range(4):
            board = apply_move(board, SquareId(col, 0))
            if col < 3:
                board = apply_move(board, SquareId(col, 2))
        assert game_status(board) == (WIN, AGENT)

    def test_full_board_without_run_is_draw(self):
        cells = [
            AGENT, OPPONENT, AGENT,
            AGENT, OPPONENT, OPPONENT,
            OPPONENT, AGENT, AGENT,
        ]
        board = Board.from_cells(BoardConfig(3, 3, 3), cells)
        assert game_status(board) == (DRAW, None)

    def test_empty_board_ongoing(self):
        assert game_status(new_game(BoardConfig(3, 3, 3))).state == ONGOING

    def test_diagonal_win(self):
        board = new_game(BoardConfig(4, 4, 3))
        for i in range(3):
            board = apply_move(board, SquareId(i, i))
            if i < 2:
                board = apply_move(board, SquareId(3, i))
        assert game_status(board) == (WIN, AGENT)

    def test_anti_diagonal_win(self):
        board = new_game(BoardConfig(4, 4, 3))
        for i in range(3):
            board = apply_move(board, SquareId(i, 2 - i))
            if i < 2:
                board = apply_move(board, SquareId(3, i))
        assert game_status(board) == (WIN, AGENT)


class TestPackedRoundTrip:
    def test_random_playouts_round_trip(self):
        for seed in range(30):
            config = random.Random(seed).choice(
                [BoardConfig(3, 3, 3), BoardConfig(4, 3, 3), BoardConfig(5, 5, 4)]
            )
            for board in play_random(config, seed):
                rebuilt = Board.from_cells(config, list(board.cells()), board.to_move)
                assert rebuilt == board
                assert hash(rebuilt) == hash(board)
                assert rebuilt.cells() == board.cells()

    def test_alternation_invariants(self):
        for seed in range(10):
            for ply, board in enumerate(play_random(BoardConfig(3, 3, 3), seed)):
                held = board.cells()
                assert board.piece_count == ply
                assert board.to_move == (OPPONENT if ply % 2 else AGENT)
                assert held.count(AGENT) == (ply + 1) // 2
                assert held.count(OPPONENT) == ply // 2

    def test_move_orders_that_reach_one_position_give_equal_boards(self):
        config = BoardConfig(3, 3, 3)
        a, b, c = SquareId(0, 0), SquareId(1, 1), SquareId(2, 2)
        first, second = new_game(config), new_game(config)
        for sq in (a, b, c):
            first = apply_move(first, sq)
        for sq in (c, b, a):
            second = apply_move(second, sq)
        assert first == second
        assert hash(first) == hash(second)


def rotate(cells, n):
    """90-degree rotation of a square board's cell list."""
    return [cells[(n - 1 - c) * n + r] for r in range(n) for c in range(n)]


def reflect(cells, n):
    return [cells[r * n + (n - 1 - c)] for r in range(n) for c in range(n)]


class TestSymmetry:
    def test_status_invariant_under_rotation_and_reflection(self):
        config = BoardConfig(3, 3, 3)
        for seed in range(40):
            for board in play_random(config, seed + 1000):
                status = game_status(board)
                cells = list(board.cells())
                for transform in (rotate, reflect):
                    transformed = Board.from_cells(config, transform(cells, 3), board.to_move)
                    assert game_status(transformed) == status


class TestWindowTable:
    SHAPES = [(3, 3, 3), (4, 3, 3), (9, 4, 4), (5, 2, 4), (7, 1, 3), (2, 2, 1)]

    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_wins_matches_run_scan(self, m, n, k):
        table = window_table(m, n, k)
        rng = random.Random(f"{m}x{n}k{k}")
        for _ in range(150):
            cells = [rng.choice((0, 0, 1, 2)) for _ in range(m * n)]
            packed = sum(v << (2 * i) for i, v in enumerate(cells))
            for idx in range(m * n):
                for code in (1, 2):
                    expected = cells[idx] == code and longest_run_through(m, n, cells, idx) >= k
                    assert wins(packed, table[code][idx]) == expected, (cells, idx, code)

    @pytest.mark.parametrize("m,n,k", SHAPES)
    def test_one_entry_per_distinct_window(self, m, n, k):
        table = window_table(m, n, k)
        windows = {tuple(sorted(w)) for w in k_windows(m, n, k)}
        for idx in range(m * n):
            through = {w for w in windows if idx in w}
            for code in (1, 2):
                assert len(table[code][idx]) == len(through)
                for cells, pattern in table[code][idx]:
                    squares = tuple(j for j in range(m * n) if (cells >> (2 * j)) & 3)
                    assert squares in through
                    assert pattern == cells // 3 * code


class TestGameStatusAgainstBruteForce:
    # empty-heavy, mixed, and full boards, so all three states occur
    PALETTES = ((0, 0, 1, 2), (0, 1, 2, 1, 2), (1, 2))

    @pytest.mark.parametrize("m,n,k", TestWindowTable.SHAPES)
    def test_matches_window_enumeration(self, m, n, k):
        config = BoardConfig(m, n, k)
        windows = k_windows(m, n, k)
        rng = random.Random(f"status {m}x{n}k{k}")
        compared = {ONGOING: 0, WIN: 0, DRAW: 0}
        for i in range(600):
            palette = self.PALETTES[i % 3]
            cells = [rng.choice(palette) for _ in range(m * n)]
            owners = {cells[w[0]] for w in windows if len({cells[j] for j in w}) == 1} - {0}
            if len(owners) > 1:
                continue
            code = winner(cells, windows)
            if code:
                expected = (WIN, AGENT if code == 1 else OPPONENT)
            else:
                expected = (DRAW if all(cells) else ONGOING, None)
            packed = sum(v << (2 * i) for i, v in enumerate(cells))
            assert game_status(Board(config, packed)) == expected, cells
            compared[expected[0]] += 1
        assert compared[ONGOING] and compared[WIN]
        assert compared[DRAW] or k == 1  # with k=1 every full board has two winners

    def test_two_winners_go_to_the_lowest_square_in_an_owned_window(self):
        # The agent owns the anti-diagonal A3-B2-C1 and the opponent the row
        # C2-E2.  C1 is the lowest-index square in an owned window, so the
        # agent wins, although the opponent's run is the first one that
        # starts at a scanned square.
        config = BoardConfig(5, 3, 3)
        cells = [None] * config.squares
        for texts, player in (("A3 B2 C1", AGENT), ("C2 D2 E2", OPPONENT)):
            for text in texts.split():
                cells[config.index(SquareId.parse(text))] = player
        assert game_status(Board.from_cells(config, cells)) == (WIN, AGENT)
