"""Independent reference implementations used only as test oracles.

Nothing here imports from the package: boards are bare tuples, win
detection enumerates k-length windows, outcome probabilities come from
replaying every ordering of the empty squares, sampled rollouts draw with
randrange and test every ply for a win, and the overlap scores are
evaluated term by term with explicit set intersections.
"""

from fractions import Fraction
from itertools import permutations


def k_windows(m, n, k):
    """Every straight window of exactly k squares (indices row * m + col)."""
    windows = []
    for r in range(n):
        for c in range(m):
            for dc, dr in ((1, 0), (0, 1), (1, 1), (1, -1)):
                cells = []
                cc, rr = c, r
                while 0 <= cc < m and 0 <= rr < n and len(cells) < k:
                    cells.append(rr * m + cc)
                    cc += dc
                    rr += dr
                if len(cells) == k:
                    windows.append(tuple(cells))
    return windows


def winner(cells, windows):
    for w in windows:
        v = cells[w[0]]
        if v and all(cells[j] == v for j in w[1:]):
            return v
    return 0


def longest_run_through(m, n, cells, idx):
    """Longest straight run of cells[idx]'s value that contains idx, found
    by stepping out from idx one square at a time in each direction."""
    c0, r0 = idx % m, idx // m
    best = 0
    for dc, dr in ((1, 0), (0, 1), (1, 1), (1, -1)):
        run = 1
        for sign in (1, -1):
            c, r = c0 + sign * dc, r0 + sign * dr
            while 0 <= c < m and 0 <= r < n and cells[r * m + c] == cells[idx]:
                run += 1
                c, r = c + sign * dc, r + sign * dr
        best = max(best, run)
    return best


def brute_force_triples(m, n, k, cells, mover):
    """Replay every ordering of the empty squares with early stop at a win;
    tally outcomes per first move.

    cells: tuple of 0 empty / 1 / 2 (player codes); mover: 1 or 2, about to
    move.  Returns {square index: (win, loss, draw)} as exact Fractions
    from the mover's perspective.
    """
    windows = k_windows(m, n, k)
    by_square = {i: tuple(w for w in windows if i in w) for i in range(m * n)}
    empties = [i for i, v in enumerate(cells) if v == 0]
    counts = {i: [0, 0, 0] for i in empties}
    for perm in permutations(empties):
        board = list(cells)
        side = mover
        outcome = 0
        for sq in perm:
            board[sq] = side
            won = False
            for w in by_square[sq]:
                if all(board[j] == side for j in w):
                    won = True
                    break
            if won:
                outcome = side
                break
            side = 3 - side
        slot = 2 if outcome == 0 else (0 if outcome == mover else 1)
        counts[perm[0]][slot] += 1
    per_first = 1
    for i in range(1, len(empties)):
        per_first *= i
    return {
        i: tuple(Fraction(c, per_first) for c in counts[i]) for i in empties
    }


def reference_rollout_counts(m, n, k, cells, mover, rollouts, rng_for, depth_limit=None):
    """Seeded uniform-random rollouts drawn one randrange per ply, with a
    window test after every ply.

    cells and mover are as for brute_force_triples; rng_for(idx) gives the
    random.Random of root move idx.  Root moves and the squares left are
    listed column by column (the package's square order), and each pick
    is swapped with the last square left and popped.  A rollout cut short
    by depth_limit counts as a draw.  Returns {square index: (wins, losses,
    draws)} as counts from the mover's perspective.
    """
    windows = k_windows(m, n, k)
    by_square = {i: tuple(w for w in windows if i in w) for i in range(m * n)}
    empties = [r * m + c for c in range(m) for r in range(n) if cells[r * m + c] == 0]
    counts = {}
    for pos, first in enumerate(empties):
        board = list(cells)
        board[first] = mover
        if any(all(board[j] == mover for j in w) for w in by_square[first]):
            counts[first] = (rollouts, 0, 0)
            continue
        rng = rng_for(first)
        rest = empties[:pos] + empties[pos + 1 :]
        plies = len(rest) if depth_limit is None else min(depth_limit, len(rest))
        tally = [0, 0, 0]
        for _ in range(rollouts):
            board = list(cells)
            board[first] = mover
            remaining = list(rest)
            side = 3 - mover
            outcome = 0
            for _ in range(plies):
                pick = rng.randrange(len(remaining))
                sq = remaining[pick]
                remaining[pick] = remaining[-1]
                remaining.pop()
                board[sq] = side
                if any(all(board[j] == side for j in w) for w in by_square[sq]):
                    outcome = side
                    break
                side = 3 - side
            tally[0 if outcome == mover else 1 if outcome else 2] += 1
        counts[first] = tuple(tally)
    return counts


def positions_within_plies(m, n, k, max_plies):
    """All distinct ongoing (cells, mover) states reachable in <= max_plies
    alternating moves from the empty board; player 1 moves first."""
    windows = k_windows(m, n, k)
    start = (tuple([0] * (m * n)), 1)
    seen = {start}
    frontier = [start]
    for _ in range(max_plies):
        nxt = []
        for cells, side in frontier:
            for i, v in enumerate(cells):
                if v:
                    continue
                child = cells[:i] + (side,) + cells[i + 1 :]
                if winner(child, windows):
                    continue  # terminal, not an ongoing position
                state = (child, 3 - side)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return sorted(seen)


def series_rbo(s, t, p, k):
    """Depth-by-depth evaluation of the extrapolated overlap."""
    first = len(set(s[:k]) & set(t[:k])) / k * p**k
    tail = sum(len(set(s[:d]) & set(t[:d])) / d * p**d for d in range(1, k + 1))
    return first + (1 - p) / p * tail


def series_mrbo(s, t, p):
    """Depth-by-depth evaluation of the modified overlap (k = longer list)."""
    if len(s) > len(t):
        s, t = t, s
    k = len(t)
    first = len(set(s[:k]) & set(t[:k])) / len(s) * p**k
    tail = sum(
        len(set(s[:d]) & set(t[:d])) / min(len(s), d) * p**d for d in range(1, k + 1)
    )
    return first + (1 - p) / p * tail


def hand_kruskal_h(groups):
    """H by explicit mid-rank bookkeeping (tie-corrected)."""
    pooled = sorted(v for g in groups for v in g)
    n = len(pooled)
    rank_of = {}
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        rank_of[pooled[i]] = (i + j) / 2 + 1
        i = j + 1
    h = 0.0
    for g in groups:
        rank_sum = sum(rank_of[v] for v in g)
        h += rank_sum**2 / len(g)
    h = 12.0 / (n * (n + 1)) * h - 3 * (n + 1)
    ties = 0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1] == pooled[i]:
            j += 1
        run = j - i + 1
        ties += run**3 - run
        i = j + 1
    return h / (1 - ties / (n**3 - n))
