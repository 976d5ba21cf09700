"""Search-based value oracle for MNK boards.

For every legal move the oracle estimates the (win, loss, draw) outcome
probabilities for the mover under uniform-random completion by both sides,
then flattens each triple to a scalar advantage (win minus loss).  Two
backends:

  exhaustive  -- enumerates every completion exactly: integer path counts
                 per state (memoized on board state, for one board shape at
                 a time) and one exact division per legal move; capped at
                 EXHAUSTIVE_LIMIT empty squares.
  sampled     -- seeded Monte-Carlo rollouts, optionally depth-limited.

Both test for a win with the board module's k-window masks: a placed piece
wins when its player owns every square of some k-window through it.

The exhaustive memo maps (packed board, mover) to that board's own counts,
from the mover's side: (mover wins, mover losses, draws), and nothing
else, so every root of a shape can share it.  A board and its
mirror images have the same counts, and the states reachable from a root
are closed under the symmetries that map the root onto itself (its
stabilizer).  So each computed state is stored under all of its images by
that stabilizer, and a state whose image was computed earlier is a plain
memo hit: the empty 4x3 board's 79,562 states cost 20,087 evaluations.
An asymmetric root has only the identity and runs the same code.

A sampled rollout picks each ply's square among the n left with
getrandbits(n.bit_length()), drawn again while the result is >= n: the bits
Random.randrange(n) takes on CPython 3.10-3.13, without its call per ply.
A side cannot own a k-window before it holds k pieces, and the ply at
which each side first does is fixed by the root's piece counts, so the
plies before it skip the window test.  On Linux the root moves are
shared with one forked worker on another CPU of the process's affinity
mask (see _fan_out); each root move draws from its own Random, so equal
seeds give the same values on those versions, on one CPU or many.
The exhaustive oracle stays in one process, for its memo.

A mutated agent adds seeded uniform noise to the flattened values only,
leaving the outcome triples untouched; magnitude 0 is bit-exact identical
to the unmutated agent.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import sys
from collections import namedtuple
from functools import lru_cache

from .actions import SquareId, canonical_key
from .board import (
    _CELL_CODE,
    _CODE_CELL,
    ONGOING,
    Board,
    _window_table,
    _wins,
    game_status,
)
from .errors import Validated, ValidationError
from .values import DecisionValues, OutcomeTriple, ranked

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

# 12 empty squares is the largest exhaustive enumeration that stays desk-scale.
EXHAUSTIVE_LIMIT = 12


_MAX_MAGNITUDE = sys.float_info.max / 2


class Mutation(Validated, namedtuple("Mutation", "seed magnitude")):
    """Seeded value-noise perturbation applied to flattened values."""

    __slots__ = ()

    def __new__(cls, seed: int, magnitude: float):
        if not math.isfinite(magnitude):
            raise ValidationError(f"mutation magnitude must be finite, got {magnitude}")
        if magnitude < 0:
            raise ValidationError(f"mutation magnitude must be >= 0, got {magnitude}")
        if magnitude > _MAX_MAGNITUDE:  # uniform(-M, M) takes 2 * M, which must stay finite
            raise ValidationError(
                f"mutation magnitude must be <= {_MAX_MAGNITUDE!r}, got {magnitude}")
        return super().__new__(cls, seed, magnitude)


class AgentSpec(Validated, namedtuple("AgentSpec", "oracle rollouts seed depth_limit mutation")):
    """How an agent values moves: the oracle kind, its rollouts, seed and
    optional depth limit when sampled (the exhaustive oracle plays every game
    to its end, so it takes no depth limit), and an optional value Mutation."""

    __slots__ = ()

    def __new__(
        cls,
        oracle: str = EXHAUSTIVE,
        rollouts: int | None = None,
        seed: int | None = None,
        depth_limit: int | None = None,
        mutation: Mutation | None = None,
    ):
        if oracle not in (EXHAUSTIVE, SAMPLED):
            raise ValidationError(f"unknown oracle kind {oracle!r}")
        if oracle == SAMPLED:
            if not rollouts or rollouts < 1:
                raise ValidationError("sampled oracle requires rollouts >= 1")
            if seed is None:
                raise ValidationError("sampled oracle requires an explicit seed")
        if depth_limit is not None:
            if depth_limit < 1:
                raise ValidationError(f"depth_limit must be >= 1, got {depth_limit}")
            if oracle != SAMPLED:  # the exhaustive oracle plays every game out
                raise ValidationError(f"depth_limit applies only to the {SAMPLED} oracle, "
                                      f"not {oracle!r}")
        return super().__new__(cls, oracle, rollouts, seed, depth_limit, mutation)


@lru_cache(maxsize=None)
def _symmetries(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The distinct square permutations of the board's symmetry group,
    identity first; perm[i] is the index square i is mapped to.

    A rectangle has the identity, the column flip, the row flip and the
    half turn; a square board adds the four maps through the transpose.
    Each maps k-windows onto k-windows, so it preserves every outcome.
    """
    perms: dict[tuple[int, ...], None] = {}
    for transpose in (False, True) if m == n else (False,):
        for flip_rows in (False, True):
            for flip_cols in (False, True):
                perm = []
                for i in range(m * n):
                    c, r = i % m, i // m
                    if transpose:
                        c, r = r, c
                    if flip_cols:
                        c = m - 1 - c
                    if flip_rows:
                        r = n - 1 - r
                    perm.append(r * m + c)
                perms[tuple(perm)] = None  # a 1-wide board repeats the identity
    return tuple(perms)


def _image(packed: int, perm: tuple[int, ...]) -> int:
    """The packed board with the piece on square i moved to perm[i]."""
    return sum(((packed >> (2 * i)) & 3) << (2 * j) for i, j in enumerate(perm))


@lru_cache(maxsize=None)
def _placements(perms: tuple[tuple[int, ...], ...]) -> dict:
    """Per player code, per square index: the bits that place the code on
    that square's image in every slot of a multi-board (slot s holds the
    board's image under perms[s], 2 bits per square, slot 0 lowest)."""
    size = 2 * len(perms[0])
    return {
        code: tuple(
            sum(code << (slot * size + 2 * perm[i]) for slot, perm in enumerate(perms))
            for i in range(len(perms[0]))
        )
        for code in _CELL_CODE.values()
    }


# (board shape, continuation counts by state) for the last shape evaluated;
# kept across oracle calls and replaced when the shape changes.
_memo: tuple[tuple[int, int, int] | None, dict] = (None, {})


def _shape_memo(shape: tuple[int, int, int]) -> dict:
    global _memo
    if _memo[0] != shape:
        _memo = (shape, {})
    return _memo[1]


def exact_outcome_triples(board: Board) -> dict[SquareId, tuple]:
    """Exact mover-perspective (win, loss, draw) for every legal move, as a
    triple of fractions.Fraction that sums to exactly 1.
    """
    from fractions import Fraction  # loads decimal: import it only here

    status = game_status(board)
    if status.state != ONGOING:
        raise ValidationError(f"game is not ongoing ({status.state}); nothing to evaluate")
    empties = board.empty_squares()
    if len(empties) > EXHAUSTIVE_LIMIT:
        raise ValidationError(
            f"exhaustive oracle supports at most {EXHAUSTIVE_LIMIT} empty squares "
            f"(board has {len(empties)}); use the sampled oracle"
        )
    cfg = board.config
    windows = _window_table(cfg.m, cfg.n, cfg.k)
    memo = _shape_memo((cfg.m, cfg.n, cfg.k))
    # The root's stabilizer; the root is its own image in every slot.
    perms = tuple(p for p in _symmetries(cfg.m, cfg.n) if _image(board.packed, p) == board.packed)
    place = _placements(perms)
    size = 2 * cfg.squares
    shifts = tuple(range(0, size * len(perms), size))
    slot_mask = (1 << size) - 1

    def continuation(multi: int, mover: int, squares: tuple[int, ...]) -> tuple[int, int, int]:
        """Counts of (mover win, mover loss, draw) over the e! orderings of
        the e empty squares (their indices), each played out from this state
        until a win.

        A game that ends with a win on its first move accounts for (e-1)!
        orderings, and a draw on the last square for one.  A child state's
        counts are scaled by (e-1)! already, so they add in unchanged, its
        wins as this mover's losses.  Under uniform random play the outcome
        probabilities are the counts over e!.

        multi holds the state's image under each symmetry of the root in one
        slot of slot_mask's width, starting at the bit offsets in shifts;
        slot 0 is the state itself.  A move ORs in place[mover][square],
        which sets the piece in every slot, and the window masks lie inside
        slot 0, so the win test sees the state itself.  The memo is looked
        up by the state and the result is stored under every image, since
        each has the same counts.
        """
        hit = memo.get((multi & slot_mask, mover))
        if hit is not None:
            return hit
        wins = losses = draws = 0
        last = len(squares) == 1
        immediate = math.factorial(len(squares) - 1)
        other = mover ^ 3
        placing, lines = place[mover], windows[mover]
        for i, idx in enumerate(squares):
            child = multi | placing[idx]
            if _wins(child, lines[idx]):
                wins += immediate
            elif last:
                draws += 1
            else:
                won, lost, drawn = continuation(child, other, squares[:i] + squares[i + 1 :])
                wins += lost
                losses += won
                draws += drawn
        result = (wins, losses, draws)
        for shift in shifts:
            memo[(multi >> shift) & slot_mask, mover] = result
        return result

    multi = sum(board.packed << shift for shift in shifts)
    mover = _CELL_CODE[board.to_move]
    empty_idx = tuple(cfg.index(sq) for sq in empties)
    orderings = math.factorial(len(empties) - 1)
    out = {}
    for pos, sq in enumerate(empties):
        idx = empty_idx[pos]
        child = multi | place[mover][idx]
        if _wins(child, windows[mover][idx]):
            counts = (orderings, 0, 0)
        elif len(empties) == 1:
            counts = (0, 0, 1)
        else:
            won, lost, drawn = continuation(child, mover ^ 3, empty_idx[:pos] + empty_idx[pos + 1 :])
            counts = (lost, won, drawn)
        out[sq] = tuple(Fraction(c, orderings) for c in counts)
    return out


def _board_key(board: Board) -> str:
    cfg = board.config
    return f"{cfg.m}x{cfg.n}k{cfg.k}|{board.packed}|{board.to_move}"


def sampled_outcome_triples(
    board: Board, rollouts: int, seed: int, depth_limit: int | None = None
) -> dict[SquareId, tuple[float, float, float]]:
    """Monte-Carlo estimate of the mover-perspective outcome triples.

    Each square draws its own RNG from (seed, board, square), so estimates
    are reproducible regardless of evaluation order, and the squares are
    shared with a forked worker by :func:`_fan_out`.  Rollouts that hit the depth
    limit count as draws.
    """
    status = game_status(board)
    if status.state != ONGOING:
        raise ValidationError(f"game is not ongoing ({status.state}); nothing to evaluate")
    if rollouts < 1:
        raise ValidationError("rollouts must be >= 1")
    cfg = board.config
    windows = _window_table(cfg.m, cfg.n, cfg.k)
    mover = _CELL_CODE[board.to_move]
    opponent = mover ^ 3
    empties = board.empty_squares()
    empty_idx = [cfg.index(sq) for sq in empties]
    # One row per ply after the root move, the same for every root move:
    # the n squares left, the bits a pick among them draws, the last of the
    # n live slots of the remaining list (the picked slot takes its square,
    # so nothing is popped), the side's bits on each square, the side, and
    # the side's windows once it holds k pieces.  Before that the row holds
    # None: a side with fewer pieces cannot own a k-window.
    held = board.cells()
    pieces = {mover: held.count(board.to_move) + 1, opponent: held.count(_CODE_CELL[opponent])}
    placing = {code: tuple(code << (2 * i) for i in range(cfg.squares)) for code in pieces}
    plies = len(empties) - 1 if depth_limit is None else min(depth_limit, len(empties) - 1)
    schedule = []
    for ply in range(plies):
        n = len(empties) - 1 - ply
        side = mover if ply % 2 else opponent
        pieces[side] += 1
        tested = windows[side] if pieces[side] >= cfg.k else None
        schedule.append((n, n.bit_length(), n - 1, placing[side], side, tested))
    base_key = _board_key(board)

    def outcome(pos: int) -> tuple[float, float, float]:
        idx = empty_idx[pos]
        first = board.packed | (mover << (2 * idx))
        if _wins(first, windows[mover][idx]):
            return (1.0, 0.0, 0.0)
        rest = empty_idx[:pos] + empty_idx[pos + 1 :]
        # Each pick draws what randrange(n) would (see the module docstring).
        getrandbits = random.Random(f"{seed}|{base_key}|{empties[pos].text}").getrandbits
        tally = [0, 0, 0]  # draws (or depth limit), agent wins, opponent wins
        for _ in range(rollouts):
            packed = first
            remaining = rest[:]
            winner = 0
            for n, bits, last, places, side, tested in schedule:
                pick = getrandbits(bits)
                while pick >= n:
                    pick = getrandbits(bits)
                move = remaining[pick]
                remaining[pick] = remaining[last]
                packed |= places[move]
                if tested is not None:
                    for cells, pattern in tested[move]:
                        if packed & cells == pattern:
                            winner = side
                            break
                    if winner:
                        break
            tally[winner] += 1
        return (tally[mover] / rollouts, tally[opponent] / rollouts, tally[0] / rollouts)

    return dict(zip(empties, _fan_out(outcome, range(len(empties)))))


def _threads_and_cpu() -> tuple[int, int] | None:
    """This process's OS thread count, native threads (such as a BLAS pool)
    included, and the CPU it last ran on; None where /proc cannot tell."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return int(fields[17]), int(fields[36])


def _fan_out(fn, items) -> list:
    """[fn(x) for x in items], with the far half of the items given to one
    child forked onto another CPU of this process's affinity mask.  One
    child only: the fan-out was measured on 2 CPUs only.  Two callers map
    through it: sampled_outcome_triples (an item per root move) and
    dataset.generate_synthetic_experiment (an item per block of participants).

    The child works from the far end and writes each (index, result) down a
    pipe as soon as it is done.  The parent sweeps the items front to back,
    takes each result that has arrived and computes the rest itself, so it
    never waits: a starved child, a failed pipe or fork, or a child whose fn
    raises changes no result, and the parent raises fn's error when it
    reaches that item.  A result that arrives late is CPU time lost, which
    shows on a machine with no idle CPU.  Then the child is killed and
    reaped.  fn must be pure: what the child's call does besides returning
    is lost.

    The child leaves only when it is killed or the parent is gone: it waits
    for end-of-file on a pipe whose write end only the parent holds.  So the
    pid the parent kills is still its child, also where SIGCHLD is ignored.
    It binds itself to the mask's CPUs other than the parent's, because the
    kernel may leave a forked child on its parent's CPU for longer than a
    call lasts.

    It runs in process for fewer than 2 items, with one CPU in the mask,
    without os.fork or os.sched_getaffinity (off Linux), and beside a second
    thread, which fork() may deadlock in the child (CPython 3.12+ warns).
    """
    cpus = set()
    if len(items) >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = os.sched_getaffinity(0)
    stat = _threads_and_cpu() if len(cpus) >= 2 else None
    if stat is None or stat[0] > 1:
        return [fn(x) for x in items]

    import pickle
    import signal

    missing = object()
    results = [missing] * len(items)
    pid = None
    fds = []  # every pipe end the parent holds
    try:
        with contextlib.suppress(OSError):  # else the parent computes every item
            hold = os.pipe()  # the child reads end-of-file from it before it leaves
            fds += hold
            read_fd, write_fd = os.pipe()
            fds += (read_fd, write_fd)
            pid = os.fork()
        if pid is None:
            return [fn(x) for x in items]
        if pid == 0:
            try:
                try:
                    os.close(hold[1])
                    with contextlib.suppress(OSError):  # else left to the kernel
                        os.sched_setaffinity(0, cpus - {stat[1]})
                    for i in range(len(items) - 1, len(items) // 2 - 1, -1):
                        payload = pickle.dumps((i, fn(items[i])), pickle.HIGHEST_PROTOCOL)
                        frame = len(payload).to_bytes(4, "little") + payload
                        while frame:
                            frame = frame[os.write(write_fd, frame) :]
                finally:
                    os.close(write_fd)
                    os.read(hold[0], 1)
            finally:
                os._exit(0)  # never return into the parent's frames
        os.close(fds.pop())  # the write end: once the child closes its own, reads give b""
        os.set_blocking(read_fd, False)
        buffer = b""
        for i, item in enumerate(items):
            with contextlib.suppress(BlockingIOError):
                buffer += os.read(read_fd, 1 << 16)
            while len(buffer) >= 4:  # each frame: 4-byte length, then the pickle
                end = 4 + int.from_bytes(buffer[:4], "little")
                if len(buffer) < end:
                    break
                index, result = pickle.loads(buffer[4:end])
                results[index] = result
                buffer = buffer[end:]
            if results[i] is missing:
                results[i] = fn(item)
        return results
    finally:
        if pid:
            with contextlib.suppress(ProcessLookupError):  # killed from outside
                os.kill(pid, signal.SIGKILL)
        for fd in fds:
            os.close(fd)
        if pid:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
                os.waitpid(pid, 0)


def value_oracle(board: Board, spec: AgentSpec, decision_id: str | None = None) -> DecisionValues:
    """Full value table for the current mover: one outcome triple per legal
    move, flattened to advantage = win - loss, with optional mutation noise
    on the flattened values.  The chosen action is the first of
    :func:`predscore.values.ranked`: the best value, ties to the lowest
    (col, row)."""
    if spec.oracle == EXHAUSTIVE:
        raw = {
            sq: (float(win), float(loss), float(draw))
            for sq, (win, loss, draw) in exact_outcome_triples(board).items()
        }
    else:
        raw = sampled_outcome_triples(
            board, rollouts=spec.rollouts, seed=spec.seed, depth_limit=spec.depth_limit
        )
    entries = {sq.text: win - loss for sq, (win, loss, draw) in raw.items()}
    outcomes = {
        sq.text: OutcomeTriple(win, loss, draw) for sq, (win, loss, draw) in raw.items()
    }
    if spec.mutation is not None and spec.mutation.magnitude > 0:
        rng = random.Random(f"{spec.mutation.seed}|{_board_key(board)}")
        for action in sorted(entries, key=canonical_key):
            entries[action] += rng.uniform(-spec.mutation.magnitude, spec.mutation.magnitude)
    if decision_id is None:
        decision_id = f"d{board.piece_count + 1}"
    return DecisionValues(
        decision_id=decision_id,
        entries=entries,
        chosen=ranked(entries)[0],
        outcomes=outcomes,
    )

