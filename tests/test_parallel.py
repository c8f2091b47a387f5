"""CV folds and simulate replications on forked worker processes.

Forking is safe only in a process with one thread, so these run in child
processes with one BLAS thread (OpenBLAS otherwise starts one per core at
import, and `map_tasks` then runs serially). Each child counts its own
forks with `os.register_at_fork`, so a test can tell a forked run from a
serial one.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpd
from lpd import parallel

PRELUDE = """
import os, sys, threading
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
"""


def run_child(code, *args, **env_extra):
    """Run ``code`` in a child on one BLAS thread; return its stdout lines. An
    ``env_extra`` value of None unsets that variable.

    Python 3.12 warns of a fork in a process with more than one thread. It
    clears that warning even under ``-W error``, so the check reads stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("LPD_THREADS", None)
    env.update(env_extra)
    env = {name: value for name, value in env.items() if value is not None}  # None: unset
    src = str(Path(lpd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "always::DeprecationWarning", "-c",
                          PRELUDE + code, *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "use of fork()" not in out.stderr, out.stderr
    return out.stdout.splitlines()


MAP = """
from lpd.parallel import map_tasks

def task(base, i):
    return os.getpid(), base + i * i

def report(label, count, workers):
    results = map_tasks(task, (10,), count, workers)
    by_parent = [pid == os.getpid() for pid, _ in results]
    print(label, [value for _, value in results], len(forks), any(by_parent), all(by_parent))
    forks.clear()

report("pool", 5, 2)
report("one-worker", 5, 1)
report("one-task", 1, 2)
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
report("second-thread", 5, 2)
stop.set()
thread.join(timeout=10)
assert not thread.is_alive()
"""


def test_map_tasks_forks_only_when_safe_and_useful():
    lines = {line.split()[0]: line.split(None, 1)[1] for line in run_child(MAP)}
    # two forked workers, results in task order, none computed by the parent
    assert lines["pool"] == "[10, 11, 14, 19, 26] 2 False False"
    for label, values in (("one-worker", "[10, 11, 14, 19, 26]"), ("one-task", "[10]"),
                          ("second-thread", "[10, 11, 14, 19, 26]")):
        assert lines[label] == f"{values} 0 True True", label


def test_unreadable_thread_count_runs_serially(monkeypatch):
    def unreadable(path):
        raise PermissionError(path)

    monkeypatch.setattr(parallel.os, "listdir", unreadable)
    assert parallel._single_threaded() is False
    assert parallel.map_tasks(pow, (2,), 4, 2) == [1, 2, 4, 8]


CLI = """
from lpd.cli import main
code = main(sys.argv[1:])
print("forks", len(forks))
sys.exit(code)
"""


def write_wide(path, rng, n=40, p=60):
    labels = np.arange(n) % 2 + 1
    features = rng.standard_normal((n, p))
    features[labels == 1, :5] += 1.0
    path.write_text("".join(",".join([str(k)] + [repr(float(v)) for v in row]) + "\n"
                            for k, row in zip(labels, features)))


def test_cli_outputs_do_not_depend_on_worker_processes(tmp_path):
    data = tmp_path / "wide.csv"
    write_wide(data, np.random.default_rng(3))
    jobs = {
        "model.json": ["train", "--data", data, "--lambda", "auto", "--seed", "1"],
        "cv.csv": ["cv", "--data", data, "--grid-size", "8", "--seed", "2"],
        "report.csv": ["simulate", "--model-id", "3", "--p", "20", "--n1", "40", "--n2", "40",
                       "--reps", "3", "--seed", "5", "--folds", "3", "--grid-size", "6"],
    }
    workers = {"1": 0, "2": 2 if (os.cpu_count() or 1) >= 2 else 0}  # clamped to the CPUs
    for name, argv in jobs.items():
        outputs = {}
        for threads, expected_forks in workers.items():
            out = tmp_path / f"{threads}-{name}"
            lines = run_child(CLI, *argv, "--out", out, LPD_THREADS=threads)
            assert lines[-1] == f"forks {expected_forks}", (name, threads)
            outputs[threads] = out.read_bytes()
        assert outputs["1"] == outputs["2"], name


FAILING = """
import numpy as np
import lpd.model_selection as ms
import lpd.simulation as sim
from lpd.errors import SolverFailure
from lpd.model_selection import CvPlan, cross_validate
from lpd.simulation import SimulationSpec, run_benchmark

real_rep, real_path = sim._run_replication, ms.fit_lpd_path

def failing_rep(spec, methods, seed_seq, rep, *rest):
    if rep == 1:
        raise SolverFailure(f"injected at rep {rep}")
    if rep == 2 and sys.argv[1] == "other":
        raise RuntimeError("not an LpdError")
    return real_rep(spec, methods, seed_seq, rep, *rest)

def failing_path(moments, grid, ridge_rho=None):
    fits = real_path(moments, grid, ridge_rho)
    fits[1] = SolverFailure(f"injected at delta[0]={moments.delta_hat[0]:.9f}")  # one per fold
    return fits

sim._run_replication = failing_rep
ms.fit_lpd_path = failing_path
spec = SimulationSpec(model_id=1, p=10, n1=20, n2=20, s0=3, reps=4, seed=6)
data = sim.sample(sim.build_model(spec), spec, np.random.default_rng(1))
plan = CvPlan(folds=4, lambda_grid=[0.8, 0.4, 0.2, 0.1], seed=3)
for workers in (1, 2):
    if sys.argv[1] == "other":
        try:
            run_benchmark(spec, methods=("naive_bayes",), max_workers=workers)
        except RuntimeError as exc:
            print(workers, "raised", exc, len(forks))
        continue
    report = run_benchmark(spec, methods=("naive_bayes", "oracle"), max_workers=workers)
    print(workers, report.reps_failed, report.failures, report.to_rows(), len(forks))
    cv = cross_validate(data, plan, max_workers=workers)
    print(workers, cv.failures, cv.correct_counts.tolist(), cv.chosen_lambda, len(forks))
"""


def test_worker_failures_are_counted_as_in_serial():
    lines = run_child(FAILING, "lpd")
    serial_rep, serial_cv, pooled_rep, pooled_cv = (line.split(" ", 1)[1] for line in lines)
    assert serial_rep.rsplit(" ", 1)[0] == pooled_rep.rsplit(" ", 1)[0]
    assert serial_rep.startswith("1 ['rep 1: injected at rep 1']")
    assert serial_cv.rsplit(" ", 1)[0] == pooled_cv.rsplit(" ", 1)[0]
    assert serial_cv.startswith("{1: [(0, 'injected at delta[0]=")
    assert all(f"({fold}, 'injected" in serial_cv for fold in range(4))
    # no forks in the serial runs; forked workers in the pooled ones
    forks = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert forks[:2] == [0, 0] and forks[2] > 0 and forks[3] > forks[2]


def test_other_worker_errors_propagate():
    lines = run_child(FAILING, "other")
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "1 raised not an LpdError", "2 raised not an LpdError"]
    assert lines[1].rsplit(" ", 1)[1] != "0"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_THREADS)

ENTRY = """
import lpd_main
code = lpd_main.main()
print("forks", len(forks), [os.environ.get(name)
                            for name in ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")])
sys.exit(code)
"""


def test_console_script_runs_on_one_blas_thread(tmp_path):
    """The `lpd` entry sets one BLAS thread before numpy loads, unless the user set a
    count, so `train --lambda auto` forks its folds; `import lpd` changes nothing."""
    lines = run_child("import lpd.cli; print(sorted(set(os.environ) & set(sys.argv[1:])))",
                      *BLAS_THREADS, **UNSET)
    assert lines == ["[]"]
    data = tmp_path / "wide.csv"
    write_wide(data, np.random.default_rng(4))
    argv = ["train", "--data", data, "--lambda", "auto", "--seed", "2", "--out"]
    run_child(CLI, *argv, tmp_path / "one.json")
    lines = run_child(ENTRY, *argv, tmp_path / "entry.json", **UNSET, LPD_THREADS="2")
    forks = 2 if (os.cpu_count() or 1) >= 2 else 0
    assert lines[-1] == f"forks {forks} ['1', '1', '1']"
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    lines = run_child(ENTRY, *argv, tmp_path / "user.json", **{**UNSET, "OMP_NUM_THREADS": "3"})
    assert lines[-1].endswith(" ['1', '3', '1']")


PREDICT = """
from lpd import dataio
from lpd.cli import main
dataio.PIECE_BYTES = 1 << 20
if sys.argv[1] == "threaded":
    stop = threading.Event()
    threading.Thread(target=stop.wait, daemon=True).start()
code = main(sys.argv[2:])
print("forks", len(forks))
sys.exit(code)
"""


def test_predict_parses_a_large_file_on_workers(tmp_path):
    """A plain file above the piece size is parsed in pieces on forked workers, with
    the serial run's output; beside a second thread nothing forks."""
    rng = np.random.default_rng(6)
    train, labeled, batch = (tmp_path / name for name in ("train.csv", "labeled.csv", "batch.csv"))
    write_wide(train, rng, n=40, p=20)
    write_wide(labeled, rng, n=7000, p=20)
    batch.write_text("".join(line.split(",", 1)[1] for line in labeled.open()))
    assert batch.stat().st_size > 2 << 20
    model = tmp_path / "model.json"
    run_child(CLI, "train", "--data", train, "--lambda", "0.5", "--out", model)
    workers = 2 if (os.cpu_count() or 1) >= 2 else 0
    for data, flags in ((batch, []), (labeled, ["--has-labels"])):
        outputs = {}
        for mode, threads, expected_forks in (("serial", "1", 0), ("forked", "2", workers),
                                               ("threaded", "2", 0)):
            out = tmp_path / f"{mode}{len(flags)}.csv"
            lines = run_child(PREDICT, mode, "predict", "--model", model, "--data", data,
                              *flags, "--out", out, LPD_THREADS=threads)
            assert lines[-1] == f"forks {expected_forks}", (flags, mode)
            outputs[mode] = out.read_bytes()
        assert outputs["forked"] == outputs["serial"] == outputs["threaded"], flags



KILLED = """
import signal, time
from lpd.parallel import WorkerError, map_tasks

def task(i):
    if i == 1:
        os.kill(os.getpid(), int(sys.argv[1]))
    return i

start = time.monotonic()
try:
    map_tasks(task, (), 4, 2)
except WorkerError as exc:
    print("raised", exc)
print("seconds", time.monotonic() - start)
try:
    print("left", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("left none")
"""


def test_a_killed_worker_fails_its_task_and_leaves_no_child():
    lines = run_child(KILLED, int(signal.SIGKILL))
    assert lines[0] == ("raised the worker process running task 1 ended before reporting it: "
                        "killed by signal 9 (SIGKILL)"), lines
    assert float(lines[1].split()[1]) < 10
    assert lines[2] == "left none"


@pytest.mark.skipif(not hasattr(signal, "SIGRTMIN"), reason="no real-time signals")
def test_a_worker_killed_by_a_nameless_signal_is_a_worker_error():
    """A real-time signal has no name in `signal.Signals`; the error gives its number."""
    number = int(signal.SIGRTMIN) + 6
    lines = run_child(KILLED, number)
    assert lines[0] == ("raised the worker process running task 1 ended before reporting it: "
                        f"killed by signal {number}"), lines
    assert lines[2] == "left none"


UNSENDABLE = """
import threading
from lpd.parallel import WorkerError, map_tasks

class TwoArguments(Exception):
    # pickles, but unpickling calls TwoArguments(message), which fails
    def __init__(self, name, index):
        super().__init__(f"{name} at {index}")

def task(kind, i):
    if i == 2 and kind == "unpicklable":
        raise TwoArguments("two", i)
    if i == 2 and kind == "lock":
        raise ValueError(threading.Lock())
    if i == 3 and kind == "result":
        return threading.Lock()
    return i

for kind in ("unpicklable", "lock", "result"):
    try:
        print(kind, "returned", map_tasks(task, (kind,), 5, 2))
    except WorkerError as exc:
        print(kind, "raised", exc)
"""


def test_an_outcome_that_cannot_be_sent_back_is_a_worker_error():
    unpicklable, lock, result = run_child(UNSENDABLE)
    assert unpicklable.startswith("unpicklable raised task 2's exception TwoArguments('two at 2') "
                                  "could not be sent back from its worker: TypeError("), unpicklable
    assert lock.startswith("lock raised task 2's exception ValueError(<unlocked _thread.lock"), lock
    assert result.startswith("result raised task 3's result (a lock) could not be sent back"), result


FIRST_FAILURE = """
import time
from lpd.parallel import map_tasks

def task(failing, slow, i):
    if i == slow:
        time.sleep(0.5)
    if i in failing:
        raise ValueError(f"task {i}")
    return i

for failing, slow in (({1, 3}, None), ({1, 2}, 1), ({0, 3}, 0)):
    for workers in (1, 2):
        try:
            map_tasks(task, (failing, slow), 5, workers)
        except ValueError as exc:
            print(workers, "raised", exc, len(forks))
        forks.clear()
"""


def test_the_lowest_numbered_failure_propagates_as_in_the_serial_loop():
    """On two workers, whichever task fails first in time, the caller gets the
    lowest-numbered failure, the one the serial loop raises."""
    assert run_child(FIRST_FAILURE) == [f"{workers} raised task {task} {forks}"
                                        for task in (1, 1, 0) for workers, forks in ((1, 0), (2, 2))]


FAIL_FAST = """
import time
from lpd.parallel import map_tasks

def task(i):
    if i == 0:
        raise ValueError("task 0")
    if i == 3:
        time.sleep(60)
    return i

start = time.monotonic()
try:
    map_tasks(task, (), 6, 2)
except ValueError as exc:
    print("raised", exc, len(forks))
print("seconds", time.monotonic() - start)
try:
    print("left", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("left none")
"""


def test_a_failure_stops_the_workers_whose_tasks_all_come_after_it():
    """Task 0 fails on worker 0; worker 1's tasks (1, 3, 5) cannot fail ahead of
    it, so the caller does not wait for task 3's minute-long sleep."""
    raised, seconds, left = run_child(FAIL_FAST)
    assert raised == "raised task 0 2"
    assert float(seconds.split()[1]) < 10
    assert left == "left none"


MASKS = """
import signal
from lpd.parallel import map_tasks

def held(i):
    return signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])

print(map_tasks(held, (), 4, 2), len(forks), held(None))
"""


def test_workers_and_the_parent_end_with_sigint_deliverable():
    """SIGINT is held across each fork and reap; neither a worker's task nor the
    caller is left with it held."""
    assert run_child(MASKS) == ["[False, False, False, False] 2 False"]


INTERRUPTED = """
import signal, time
from lpd.parallel import map_tasks

def interrupt(signum, frame):
    if sys.argv[1] == "sigint":
        os.kill(os.getpid(), signal.SIGINT)  # Python's own handler raises KeyboardInterrupt
    else:
        raise KeyboardInterrupt

signal.signal(signal.SIGALRM, interrupt)
signal.setitimer(signal.ITIMER_REAL, 0.5)
start = time.monotonic()
try:
    map_tasks(lambda i: time.sleep(60), (), 2, 2)
except KeyboardInterrupt:
    print("interrupted", len(forks))
print("seconds", time.monotonic() - start)
try:
    print("left", os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("left none")
"""


@pytest.mark.parametrize("how", ["raise", "sigint"])
def test_an_interrupted_parent_kills_and_reaps_its_workers(how):
    interrupted, seconds, left = run_child(INTERRUPTED, how)
    assert interrupted == "interrupted 2"
    assert float(seconds.split()[1]) < 10
    assert left == "left none"
