"""MNK game board: alternating placement, K-in-a-row win detection.

Boards are immutable values.  The square grid is packed 2 bits per square
(0 empty, 1 agent piece, 2 opponent piece), which keeps states hashable and
cheap to memoize; the packed form round-trips losslessly to the cell list.

A player wins by owning every square of some k-window.  Each window is a
pair of masks on the packed board (the window's cells, and the player's
code on each of them), so testing the windows through a square is one AND
and one compare per window, and the window table is built once per board
shape.  game_status and both value oracles test wins this way.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .actions import SquareId
from .errors import ValidationError

AGENT = "agent"
OPPONENT = "opponent"

_AGENT_CODE, _OPPONENT_CODE = 1, 2  # an empty square is 0; code ^ 3 is the other player
_CELL_CODE = {AGENT: _AGENT_CODE, OPPONENT: _OPPONENT_CODE}
_CODE_CELL = {_AGENT_CODE: AGENT, _OPPONENT_CODE: OPPONENT}

MAX_SQUARES = 10_000

ONGOING = "ongoing"
WIN = "win"
DRAW = "draw"


class BoardConfig(namedtuple("BoardConfig", "m n k")):
    """Board shape: m columns, n rows, k consecutive pieces to win."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, k: int):
        if m < 1 or n < 1 or k < 1:
            raise ValidationError(f"board dimensions must be >= 1, got {m}x{n} k={k}")
        if k > max(m, n):
            raise ValidationError(f"winning run k={k} exceeds both board dimensions {m}x{n}")
        if m * n > MAX_SQUARES:
            raise ValidationError(f"board of {m * n} squares exceeds the {MAX_SQUARES} guard")
        return super().__new__(cls, m, n, k)

    @property
    def squares(self) -> int:
        return self.m * self.n

    def all_squares(self) -> tuple[SquareId, ...]:
        """Every square in canonical (col, row) order."""
        return tuple(SquareId(c, r) for c in range(self.m) for r in range(self.n))

    def index(self, sq: SquareId) -> int:
        return sq.row * self.m + sq.col

    def in_bounds(self, sq: SquareId) -> bool:
        return sq.col < self.m and sq.row < self.n


class GameStatus(namedtuple("GameStatus", "state winner", defaults=(None,))):
    """state is ONGOING, WIN or DRAW; winner is the winning player or None."""

    __slots__ = ()


class Board(namedtuple("Board", "config packed to_move history", defaults=(0, AGENT, ()))):
    """A position on a config-shaped board: the packed squares, the player
    to move, and history, the (player, SquareId) moves that led here."""

    __slots__ = ()

    def cell(self, sq: SquareId) -> str | None:
        """AGENT, OPPONENT or None for an empty square."""
        code = (self.packed >> (2 * self.config.index(sq))) & 3
        return _CODE_CELL.get(code)

    def cells(self) -> tuple[str | None, ...]:
        """Unpacked square list, row-major (index = row * m + col)."""
        return tuple(
            _CODE_CELL.get((self.packed >> (2 * i)) & 3) for i in range(self.config.squares)
        )

    def empty_squares(self) -> tuple[SquareId, ...]:
        return tuple(sq for sq in self.config.all_squares() if self.cell(sq) is None)

    @property
    def move_count(self) -> int:
        return len(self.history)

    @property
    def piece_count(self) -> int:
        packed = self.packed
        count = 0
        while packed:
            if packed & 3:
                count += 1
            packed >>= 2
        return count

    @property
    def is_full(self) -> bool:
        return self.piece_count == self.config.squares

    @classmethod
    def from_cells(cls, config: BoardConfig, cells, to_move: str = AGENT) -> "Board":
        """Build a board from an unpacked cell list (history left empty)."""
        if len(cells) != config.squares:
            raise ValidationError(f"expected {config.squares} cells, got {len(cells)}")
        packed = 0
        agents = opponents = 0
        for i, cell in enumerate(cells):
            if cell is None:
                continue
            if cell == AGENT:
                agents += 1
            else:
                opponents += 1
            packed |= _CELL_CODE[cell] << (2 * i)
        if abs(agents - opponents) > 1:
            raise ValidationError(
                f"piece counts may differ by at most 1, got {agents} vs {opponents}"
            )
        return cls(config=config, packed=packed, to_move=to_move)


def new_game(config: BoardConfig) -> Board:
    """Empty board with the agent to move."""
    return Board(config=config)


def other_player(player: str) -> str:
    return OPPONENT if player == AGENT else AGENT


def apply_move(board: Board, sq: SquareId) -> Board:
    """Place the mover's piece on sq and flip the turn."""
    if not board.config.in_bounds(sq):
        raise ValidationError(
            f"square {sq.text} out of bounds on a {board.config.m}x{board.config.n} board"
        )
    if board.cell(sq) is not None:
        raise ValidationError(f"square {sq.text} is already occupied")
    packed = board.packed | (_CELL_CODE[board.to_move] << (2 * board.config.index(sq)))
    return Board(
        config=board.config,
        packed=packed,
        to_move=other_player(board.to_move),
        history=board.history + ((board.to_move, sq),),
    )


@lru_cache(maxsize=None)
def _window_table(m: int, n: int, k: int) -> dict:
    """Per player code, per square index: one (cells, pattern) mask pair
    for every k-window through that square, on the packed 2-bit board.

    cells covers the window's squares (3 per square) and pattern is the
    player's code on each of them, so a window is fully owned exactly when
    packed & cells == pattern.
    """
    through: list[dict[int, None]] = [{} for _ in range(m * n)]
    for r in range(n):
        for c in range(m):
            for dc, dr in ((1, 0), (0, 1), (1, 1), (1, -1)):
                if not (0 <= c + (k - 1) * dc < m and 0 <= r + (k - 1) * dr < n):
                    continue
                squares = [(r + i * dr) * m + c + i * dc for i in range(k)]
                mask = sum(1 << (2 * j) for j in squares)
                for j in squares:
                    through[j][mask] = None  # with k=1 all four directions give one window
    return {
        code: tuple(tuple((mask * 3, mask * code) for mask in masks) for masks in through)
        for code in _CODE_CELL
    }


def _wins(packed: int, windows) -> bool:
    """True if some (cells, pattern) window is fully owned.  Passed the
    windows through the square just placed, this is a k-run through it."""
    for cells, pattern in windows:
        if packed & cells == pattern:
            return True
    return False


def game_status(board: Board) -> GameStatus:
    """Win if either player owns a k-window (k in a row in any direction),
    else draw on a full board, else ongoing.

    Squares are scanned row-major, so if both players own a window (a board
    that no game stopping at its first win reaches) the winner is the owner
    of the lowest-index square that lies in an owned window.
    """
    cfg = board.config
    windows = _window_table(cfg.m, cfg.n, cfg.k)
    packed = board.packed
    for idx in range(cfg.squares):
        code = (packed >> (2 * idx)) & 3
        if code and _wins(packed, windows[code][idx]):
            return GameStatus(WIN, _CODE_CELL[code])
    if board.is_full:
        return GameStatus(DRAW)
    return GameStatus(ONGOING)
