"""Independent tasks mapped over forked worker processes.

CV folds, simulate replications and the pieces of a large data file are
independent by construction: each has its own inputs and, where it draws,
its own RNG stream. :func:`map_tasks` forks its workers with ``os.fork``,
so the task function and its shared inputs reach them through the fork and
only each task's result is pickled. Task i runs on worker i mod W. A worker
writes one length-prefixed, pickled (index, ok, value) record per task to
its own pipe, stops at its first failing task, and ends with ``os._exit``.
The parent reads every pipe with ``select`` until EOF and reaps every
child, then returns the results in task order, the same list a serial run
gives, or raises the exception of the lowest-numbered failed task, as the
serial loop would. A worker that dies (a signal, an ``os._exit`` of its
own) fails the task it was running with a :class:`WorkerError` naming its
exit status. Once a task has failed, a worker whose remaining tasks all
come after the lowest failure so far is killed at once: its outcomes
cannot change the exception raised. No child outlives the call: when the
parent stops early, on an error or an interrupt, it kills and reaps the
children left. SIGINT is held off across each fork and each reap, so a
Ctrl-C can neither unwind a new child into the caller's code nor strike
between a child's reaping and its removal from the set the parent kills.

Forking a process that runs more than one thread is unsafe: another thread
may hold a lock at the moment of the fork, and the child then waits on it
forever (Python 3.12 warns about this). A BLAS that starts its own threads
(OpenBLAS starts one per core unless ``OPENBLAS_NUM_THREADS=1``) makes such
a process, so then the tasks run serially. Nothing here starts a thread.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import struct
import sys
import traceback

# The byte length of the pickled record that follows it on a worker's pipe.
_LENGTH = struct.Struct("<Q")


class WorkerError(RuntimeError):
    """A worker died before it reported its task, or could not send the task's outcome back."""


class _RemoteTraceback(Exception):
    """The traceback of a task's exception, formatted in the worker; the cause of the re-raise."""

    def __str__(self):
        return self.args[0]


def map_tasks(fn, shared: tuple, count: int, max_workers: int) -> list:
    """``[fn(*shared, i) for i in range(count)]``, on up to ``max_workers`` forked workers.

    ``fn`` and ``shared`` reach the workers through the fork; each result
    must pickle. An exception raised by a task propagates: that of the
    lowest-numbered failed task, carrying the worker's traceback as its
    cause. The tasks run serially in this process when fewer than two
    workers or tasks are asked for, when the platform has no ``os.fork``,
    or when this process runs more than one OS thread.
    """
    workers = min(max_workers, count)
    if workers >= 2 and hasattr(os, "fork") and _single_threaded():
        return _map_forked(fn, shared, count, workers)
    return [fn(*shared, i) for i in range(count)]


def _single_threaded() -> bool:
    """True when this process has exactly one OS thread; False when that cannot be told."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _map_forked(fn, shared, count, workers):
    results = [None] * count
    failures = {}  # task index -> its exception
    live = {}  # read end of a running worker's pipe -> [pid, its next unreported task, unread bytes]
    unreaped = set()
    for stream in (sys.stdout, sys.stderr):  # or a child's exit flushes the parent's buffer again
        if stream is not None:
            stream.flush()
    try:
        for worker in range(workers):
            with _interrupts_held() as mask:  # so the child cannot unwind into the caller's code
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    _worker_main(fn, shared, range(worker, count, workers), write_end,
                                 [*live, read_end], mask)
                os.close(write_end)
                unreaped.add(pid)
                live[read_end] = [pid, worker, bytearray()]
        while live:
            ready, _, _ = select.select(list(live), [], [])
            for read_end in ready:
                if read_end not in live:  # stopped below, after an earlier pipe's failure
                    continue
                chunk = os.read(read_end, 1 << 16)
                if not chunk:
                    next_task = live[read_end][1]
                    status = _stop(read_end, live, unreaped, kill=False)
                    if next_task < count:
                        failures[next_task] = WorkerError(
                            f"the worker process running task {next_task} ended before "
                            f"reporting it: {_describe(status)}")
                else:
                    _read_records(live[read_end], chunk, workers, count, results, failures)
                if failures:  # a worker whose tasks all come after the lowest failure cannot change it
                    first = min(failures)
                    for other in [fd for fd, (_, next_task, _) in live.items() if next_task > first]:
                        _stop(other, live, unreaped, kill=True)
    finally:
        with _interrupts_held():  # stopped early, on an error or an interrupt: no child outlives the call
            for read_end in live:
                os.close(read_end)
            for pid in unreaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]
    return results


def _read_records(worker, chunk, workers, count, results, failures):
    """Add ``chunk`` to the worker's unread bytes and take in every whole record."""
    data = worker[2]
    data += chunk
    while len(data) >= _LENGTH.size:
        end = _LENGTH.size + _LENGTH.unpack_from(data)[0]
        if len(data) < end:
            break
        index, ok, value = pickle.loads(data[_LENGTH.size:end])
        del data[:end]
        if ok:
            results[index] = value
            worker[1] = index + workers
        else:
            failures[index], remote = value
            if remote:
                failures[index].__cause__ = _RemoteTraceback(remote)
            worker[1] = count  # the worker stops at its first failure


def _stop(read_end, live, unreaped, kill):
    """Close a worker's pipe and reap it, first killing it if ``kill``; return its wait status."""
    with _interrupts_held():  # a reaped pid never stays in ``unreaped``, to be killed once reused
        pid = live.pop(read_end)[0]
        os.close(read_end)
        if kill:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        unreaped.discard(pid)
    return status


@contextlib.contextmanager
def _interrupts_held():
    """Hold SIGINT, and so KeyboardInterrupt, off this thread for the block; yield the old mask.

    Only short steps run held: a fork, or a wait for a child that has closed
    its pipe or been sent SIGKILL, so Ctrl-C is put off, not lost."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _describe(status):
    if os.WIFSIGNALED(status):
        number = os.WTERMSIG(status)
        try:
            return f"killed by signal {number} ({signal.Signals(number).name})"
        except ValueError:  # a real-time signal has no name
            return f"killed by signal {number}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"


def _worker_main(fn, shared, tasks, write_end, inherited, mask):
    """Run ``tasks`` in a forked child, report each on ``write_end``, and end the process.

    The child never returns into the parent's code: whatever happens, it
    leaves through ``os._exit``, which runs no exit handlers and flushes no
    buffers the parent also holds. It starts with SIGINT held and restores
    ``mask`` only inside its ``try``. It flushes its output before it closes
    the pipe, so the parent's EOF means the worker is ending."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in inherited:  # the read ends of the pipes, this worker's and earlier ones'
            os.close(fd)
        with open(write_end, "wb") as pipe:
            for index in tasks:
                try:
                    ok, value = True, fn(*shared, index)
                except BaseException as exc:  # re-raised in the parent
                    ok, value = False, (exc, traceback.format_exc())
                ok, data = _pickled(index, ok, value)
                pipe.write(_LENGTH.pack(len(data)) + data)
                pipe.flush()
                if not ok:
                    break
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        status = 0
    finally:
        os._exit(status)


def _pickled(index, ok, value):
    """(ok, the pickled record); an outcome that cannot make the trip becomes a WorkerError.

    An exception's round trip is tried here, as one can pickle and still fail
    to unpickle (a subclass whose ``__init__`` takes other arguments)."""
    try:
        data = pickle.dumps((index, ok, value))
        if not ok:
            pickle.loads(data)
        return ok, data
    except Exception as exc:  # pickling can raise nearly anything
        what = f"result (a {type(value).__name__})" if ok else f"exception {value[0]!r}"
        error = WorkerError(f"task {index}'s {what} could not be sent back from its worker: {exc!r}")
        return False, pickle.dumps((index, False, (error, "" if ok else value[1])))
