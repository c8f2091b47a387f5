"""Independent tasks mapped over forked worker processes.

CV folds and simulate replications are independent by construction: each
has its own inputs and its own RNG stream. :func:`map_tasks` runs such
tasks on a ``concurrent.futures.ProcessPoolExecutor`` whose workers are
forked, so the shared inputs reach them through the fork and only each
task's index and its result are pickled. Results come back in task order,
the same list a serial run gives.

Forking a process that runs more than one thread is unsafe: another thread
may hold a lock at the moment of the fork, and the child then waits on it
forever (Python 3.12 warns about this). A BLAS that starts its own threads
(OpenBLAS starts one per core unless ``OPENBLAS_NUM_THREADS=1``) makes such
a process, so then the tasks run serially. ``multiprocessing`` and
``concurrent.futures`` are imported only when a pool is made.
"""

from __future__ import annotations

import os
import time

# (fn, shared) inside a worker process, set by the pool initializer; the
# parent never sets it.
_worker_task = None


def map_tasks(fn, shared: tuple, count: int, max_workers: int) -> list:
    """``[fn(*shared, i) for i in range(count)]``, on up to ``max_workers`` forked workers.

    ``fn`` and ``shared`` reach the workers through the fork; each result
    must pickle. An exception raised by a task propagates; tasks not yet
    started are then cancelled. The tasks run serially in this process when fewer than two
    workers or tasks are asked for, when the platform has no ``fork`` start
    method, or when this process runs more than one OS thread.
    """
    workers = min(max_workers, count)
    if workers >= 2 and _single_threaded():
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=(fn, shared))
            try:
                return list(pool.map(_run_task, range(count)))
            finally:
                pool.shutdown(cancel_futures=True)
                _await_pool_threads()
    return [fn(*shared, i) for i in range(count)]


def _single_threaded() -> bool:
    """True when this process has exactly one OS thread; False when that cannot be told."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _await_pool_threads():
    """Wait, at most a second, until this process has one thread again.

    The pool's threads are joined by its shutdown, but an OS thread stays
    listed for up to a few milliseconds after its join returns. A following
    call would then run serially where this one forked."""
    deadline = time.monotonic() + 1.0
    while not _single_threaded() and time.monotonic() < deadline:
        time.sleep(0.0002)


def _start_worker(fn, shared):
    global _worker_task
    _worker_task = (fn, shared)


def _run_task(index):
    fn, shared = _worker_task
    return fn(*shared, index)
