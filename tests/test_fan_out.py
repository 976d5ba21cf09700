"""oracle._fan_out spreads a list comprehension over forked children.

_fan_out never forks beside a second thread, and this test process may hold
native threads (numpy's BLAS pool starts some once another test module has
loaded scipy).  So every check that needs the forking path runs in a fresh
interpreter, which sets the worker count by replacing os.sched_getaffinity,
counts the forks and prints one JSON line.  No check offers more than 3
CPUs, and _fan_out forks at most one child per call.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from predscore import oracle
from predscore.actions import SquareId
from predscore.board import BoardConfig, apply_move, new_game
from predscore.oracle import sampled_outcome_triples

PRELUDE = """
import json, os, threading, time
from predscore.oracle import _fan_out, sampled_outcome_triples

forks = []
_fork, _affinity = os.fork, os.sched_getaffinity


def counting_fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork


def use_workers(count):
    os.sched_getaffinity = lambda pid: set(range(count))


def clean():
    # no child is left to reap, no pipe is left open, and the process may
    # still run on every CPU it could run on before
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return len(os.listdir("/proc/self/fd")) == FDS and _affinity(0) == CPUS
    return False


FDS = len(os.listdir("/proc/self/fd"))
CPUS = _affinity(0)
PARENT = os.getpid()
"""


def run_fresh(body: str):
    """Run PRELUDE and body in a fresh interpreter; the JSON it prints last."""
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_equals_the_serial_list_for_1_to_3_workers():
    rows = run_fresh("""
        def fn(x):
            return (x, x * x, str(x), None)

        rows = []
        for workers in (1, 2, 3):
            use_workers(workers)
            for count in (0, 1, 2, 50):
                before = len(forks)
                got = _fan_out(fn, list(range(count)))
                rows.append([workers, count, got == [fn(x) for x in range(count)],
                             len(forks) - before, clean()])
        print(json.dumps(rows))
    """)
    assert len(rows) == 12
    for workers, count, equal, forked, clean in rows:
        assert equal and clean, (workers, count)
        assert forked == (min(workers, count, 2) - 1 if count >= 2 else 0), (workers, count)


def test_results_computed_by_children_are_taken():
    # The parent is slow, so the child finishes its segment first.  The
    # child reports the CPUs it may run on: all but the parent's.
    taken = run_fresh("""
        use_workers(3)

        def fn(x):
            if os.getpid() == PARENT:
                time.sleep(0.01)
                return (x * 7, None)
            return (x * 7, len(_affinity(0)))

        got = _fan_out(fn, list(range(30)))
        print(json.dumps([[value for value, _ in got] == [x * 7 for x in range(30)],
                          [cpus for _, cpus in got if cpus is not None], len(CPUS),
                          len(forks), clean()]))
    """)
    equal, child_cpus, cpus, forked, clean = taken
    assert equal and clean and forked == 1
    assert child_cpus
    if cpus >= 2:
        assert max(child_cpus) < cpus


def test_a_sleeping_child_still_gives_the_whole_result():
    equal, forked, clean, seconds = run_fresh("""
        use_workers(3)

        def fn(x):
            if os.getpid() != PARENT:
                time.sleep(60)
            return x * 3

        start = time.perf_counter()
        got = _fan_out(fn, list(range(50)))
        print(json.dumps([got == [x * 3 for x in range(50)], len(forks), clean(),
                          time.perf_counter() - start]))
    """)
    assert equal and clean and forked == 1
    assert seconds < 30  # the children were killed, not waited for


def test_an_exception_in_fn_reaches_the_parent_with_its_type():
    rows = run_fresh("""
        class Boom(Exception):
            pass

        def fails_at(bad, only_in_children=False):
            def fn(x):
                if x == bad and not (only_in_children and os.getpid() == PARENT):
                    raise Boom(x)
                return -x
            return fn

        rows = []
        for workers in (1, 2, 3):
            use_workers(workers)
            for bad in (3, 37, 49):  # in the first and the last segment
                try:
                    _fan_out(fails_at(bad), list(range(50)))
                    rows.append([workers, bad, None, None, clean()])
                except Exception as exc:
                    rows.append([workers, bad, type(exc).__name__, exc.args, clean()])
            # a child whose fn raises changes nothing: the parent computes its items
            got = _fan_out(fails_at(37, only_in_children=True), list(range(50)))
            rows.append([workers, "children", got == [-x for x in range(50)], None, clean()])
        print(json.dumps(rows))
    """)
    assert len(rows) == 12
    for workers, bad, name, args, clean in rows:
        assert clean, (workers, bad)
        if bad == "children":
            assert name is True, workers
        else:
            assert (name, args) == ("Boom", [bad]), (workers, bad)


def test_a_failed_fork_leaves_the_result_whole():
    equal, clean = run_fresh("""
        use_workers(3)

        def no_fork():
            raise OSError("fork refused")

        os.fork = no_fork
        got = _fan_out(lambda x: x + 1, list(range(20)))
        print(json.dumps([got == list(range(1, 21)), clean()]))
    """)
    assert equal and clean


def test_ignored_sigchld_leaves_the_result_whole():
    # Exited children are reaped at once, so the cleanup can neither kill
    # nor wait for them; a child killed from outside is one such case.
    rows = run_fresh("""
        import signal
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        use_workers(2)
        rows = []
        got = _fan_out(lambda x: x - 1, list(range(50)))
        rows.append([got == [x - 1 for x in range(50)], len(forks), clean()])

        def fn(x):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.002)
            return x * 5

        got = _fan_out(fn, list(range(50)))
        rows.append([got == [x * 5 for x in range(50)], len(forks), clean()])
        print(json.dumps(rows))
    """)
    assert rows == [[True, 1, True], [True, 2, True]]


def test_a_child_waits_to_be_killed():
    # With SIGCHLD ignored a child that left would be gone at once, and the
    # cleanup could signal a pid that another process has taken.
    alive, equal, clean = run_fresh("""
        import signal
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        use_workers(2)
        alive = []

        def fn(x):
            if os.getpid() == PARENT and x == 0:
                time.sleep(0.5)  # the child's segment is done long before
                try:
                    os.kill(forks[-1], 0)
                    alive.append(True)
                except ProcessLookupError:
                    alive.append(False)
            return x

        got = _fan_out(fn, list(range(20)))
        print(json.dumps([alive, got == list(range(20)), clean()]))
    """)
    assert alive == [True] and equal and clean


def test_refused_pipes_leave_the_result_whole():
    rows = run_fresh("""
        use_workers(2)
        _pipe = os.pipe
        rows = []
        for refused_after in (0, 1):  # the first pipe or the second
            made = []

            def pipe():
                if len(made) == refused_after:
                    raise OSError(24, "Too many open files")
                made.append(1)
                return _pipe()

            os.pipe = pipe
            got = _fan_out(lambda x: x + 2, list(range(20)))
            os.pipe = _pipe
            rows.append([got == list(range(2, 22)), len(forks), clean()])
        print(json.dumps(rows))
    """)
    assert rows == [[True, 0, True], [True, 0, True]]


def test_never_forks_beside_a_second_thread_or_without_fork():
    rows = run_fresh("""
        use_workers(3)
        rows = []
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            rows.append(_fan_out(lambda x: x * 2, list(range(50))) == [x * 2 for x in range(50)])
        finally:
            stop.set()
            thread.join(10)
        rows.append(not thread.is_alive())
        for name in ("sched_getaffinity", "fork"):
            saved = getattr(os, name)
            delattr(os, name)
            rows.append(_fan_out(lambda x: x * 2, list(range(50))) == [x * 2 for x in range(50)])
            setattr(os, name, saved)
        use_workers(1)
        rows.append(_fan_out(lambda x: x * 2, list(range(50))) == [x * 2 for x in range(50)])
        rows.append(len(forks))
        print(json.dumps(rows))
    """)
    assert rows == [True, True, True, True, True, 0]


def play(shape, moves):
    board = new_game(BoardConfig(*shape))
    for text in moves:
        board = apply_move(board, SquareId.parse(text))
    return board


# shape, moves played, rollouts, depth limit
ORACLE_CASES = {
    "empty-9x4k4-R50": ((9, 4, 4), (), 50, None),
    "immediate-win": ((3, 3, 3), ("A1", "A2", "B1", "B2"), 40, None),
    "9x4k4-depth3": ((9, 4, 4), ("E2",), 30, 3),
    "one-empty-square": ((3, 3, 3), ("A1", "B1", "C1", "A2", "B2", "C2", "B3", "A3"), 40, None),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_sampled_oracle_is_bit_identical_for_1_to_3_workers(case, monkeypatch):
    shape, moves, rollouts, depth_limit = ORACLE_CASES[case]
    board = play(shape, moves)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = sampled_outcome_triples(board, rollouts, 7, depth_limit)
    rows = run_fresh(inspect.getsource(play) + f"""
from predscore.actions import SquareId
from predscore.board import BoardConfig, apply_move, new_game

board = play({shape}, {moves})
rows = []
for workers in (1, 2, 3):
    use_workers(workers)
    before = len(forks)
    got = sampled_outcome_triples(board, {rollouts}, 7, {depth_limit})
    rows.append([[[sq.text, list(t)] for sq, t in got.items()], len(forks) - before, clean()])
print(json.dumps(rows))
""")
    expected = [[sq.text, list(t)] for sq, t in serial.items()]
    if case == "immediate-win":
        assert ["C1", [1.0, 0.0, 0.0]] in expected
    if case == "one-empty-square":
        assert len(expected) == 1
    for workers, (triples, forked, clean) in zip((1, 2, 3), rows):
        assert triples == expected, workers  # JSON floats read back exactly
        assert forked == (min(workers, len(serial), 2) - 1 if len(serial) >= 2 else 0), workers
        assert clean, workers
