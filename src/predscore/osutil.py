"""Process and file helpers that several modules of the package share.

``write_files`` is the one function that writes a file: write_bundle and
every report command hand it all their texts at once, and it renames them
over their targets only once all are written, so a failure or an interrupt
leaves the old files, never a bundle that is half old and half new.  The
parse cache writes its entries through it too.

``fan_out`` maps a pure function over a list with one forked child on
another CPU taking items from the far end, for the sampled oracle's root
moves and the simulated participants' blocks.

Neither is part of the public API: ``predscore`` exports neither.
"""

import contextlib
import os
from pathlib import Path


def _threads_and_cpu() -> tuple[int, int] | None:
    """This process's OS thread count, native threads (such as a BLAS pool)
    included, and the CPU it last ran on; None where /proc cannot tell."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return int(fields[17]), int(fields[36])


def fan_out(fn, items) -> list:
    """[fn(x) for x in items], with the far half of the items given to one
    child forked onto another CPU of this process's affinity mask.  One
    child only: the fan-out was measured on 2 CPUs only.  Two callers map
    through it: oracle.sampled_outcome_triples (an item per root move) and
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


def write_files(directory, texts: dict) -> list[Path]:
    """Write each text, a string or an iterable of strings, to its file name
    in directory as UTF-8, and return the paths written, in order.  A text
    of bytes, or an iterable whose first item is bytes, is written as it is.

    Every text goes to ``.<name>.<pid>.tmp`` in directory, and the files are
    renamed over their targets only once all of them are written, so an error
    while any text is made leaves every target as it was.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    staged = {}
    try:
        for name, text in texts.items():
            staged[name] = directory / f".{name}.{os.getpid()}.tmp"
            pieces = iter([text] if isinstance(text, (str, bytes)) else text)
            first = next(pieces, "")
            binary = isinstance(first, bytes)
            with open(staged[name], "wb" if binary else "w",
                      encoding=None if binary else "utf-8") as fh:
                fh.write(first)
                fh.writelines(pieces)
        for name, temporary in staged.items():
            os.replace(temporary, directory / name)
    except BaseException:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
        raise
    return [directory / name for name in texts]
