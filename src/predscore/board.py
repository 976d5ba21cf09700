"""MNK game board: alternating placement, K-in-a-row win detection.

Boards are immutable values.  The square grid is packed 2 bits per square
(empty / agent piece / opponent piece), which keeps states hashable and
cheap to memoize; the packed form round-trips losslessly to the cell list.
"""

from __future__ import annotations

from typing import NamedTuple

from .actions import SquareId
from .errors import ValidationError

AGENT = "agent"
OPPONENT = "opponent"

_EMPTY, _AGENT_BIT, _OPPONENT_BIT = 0, 1, 2
_CELL_CODE = {AGENT: _AGENT_BIT, OPPONENT: _OPPONENT_BIT}
_CODE_CELL = {_AGENT_BIT: AGENT, _OPPONENT_BIT: OPPONENT}

MAX_SQUARES = 10_000

ONGOING = "ongoing"
WIN = "win"
DRAW = "draw"


class BoardConfig(NamedTuple("BoardConfig", [("m", int), ("n", int), ("k", int)])):
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


class GameStatus(NamedTuple):
    state: str  # ONGOING | WIN | DRAW
    winner: str | None = None


class Board(NamedTuple):
    config: BoardConfig
    packed: int = 0
    to_move: str = AGENT
    history: tuple[tuple[str, SquareId], ...] = ()

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


_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


def game_status(board: Board) -> GameStatus:
    """Win if either player has k in a row (any direction), else draw/ongoing."""
    cells = board.cells()
    m, n, k = board.config.m, board.config.n, board.config.k
    for r in range(n):
        for c in range(m):
            player = cells[r * m + c]
            if player is None:
                continue
            for dc, dr in _DIRECTIONS:
                # Only scan runs from their starting square.
                pc, pr = c - dc, r - dr
                if 0 <= pc < m and 0 <= pr < n and cells[pr * m + pc] == player:
                    continue
                count = 0
                cc, rr = c, r
                while 0 <= cc < m and 0 <= rr < n and cells[rr * m + cc] == player:
                    count += 1
                    cc += dc
                    rr += dr
                if count >= k:
                    return GameStatus(WIN, player)
    if board.is_full:
        return GameStatus(DRAW)
    return GameStatus(ONGOING)
