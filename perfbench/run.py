"""Benchmark of the three `lpd` CLI jobs people run.

    python3 perfbench/run.py --workload simulate-p100 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One benchmark process runs a closed loop with one client: jobs run
one after another, each as one child process. Every child, and the
in-process traced run, gets one BLAS thread and no LPD_THREADS. Each
end-to-end figure is the median over the run's jobs, not one invocation:
one invocation of the same job spreads by 7-23 % on a 2-vCPU machine.
Every job's output is checked against values recomputed here (checks.py),
and every run self-tests those checks on corrupted copies.

--trace 0 prints wall_s, cpu_s, peak_rss_mb and setup_s. --trace 1 instead
calls `lpd.cli.main` in process, alternating untraced and traced jobs on
the run's first input, and prints the per-layer metrics of spans.py plus
trace.overhead_s. The last line of stdout is the result object.
"""

import os

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before numpy is imported, here and in every child
os.environ.pop("LPD_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# The `lpd` console script, plus a last stderr line with the process's own
# peak RSS. The child's rusage cannot give it: a child started by vfork
# inherits the parent's high-water mark in ru_maxrss.
JOB_CODE = """import sys
from lpd.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("peak_rss_kb", hwm, file=sys.stderr)
sys.exit(code)
"""
SETUP_CODE = "import lpd.cli"
MIN_ROUNDS = 4


@dataclass
class Usage:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(code, args, log_path) -> Usage:
    """Run `python -c code args` to exit; wall clock plus the child's own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = Path(log_path).read_text().splitlines()
    peak_kb = float(lines[-1].split()[1]) if lines and lines[-1].startswith("peak_rss_kb") else 0.0
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime, peak_kb / 1024.0)


class Simulate:
    """`lpd simulate --model-id 3 --p 100`, all methods, a new seed per job."""

    name = "simulate-p100"

    def __init__(self, workdir, seed):
        self.seeds = inputs.simulate_seeds(seed)
        self.oracle = inputs.oracle_rate(inputs.ar1_populations(inputs.SIM_P))
        self.out = workdir / "report.csv"

    def argv(self, job):
        return ["simulate", "--model-id", "3", "--p", str(inputs.SIM_P),
                "--reps", str(inputs.SIM_REPS), "--seed", str(self.seeds[job % len(self.seeds)]),
                "--out", str(self.out)]

    def check(self, job):
        self.last = checks.read_report(self.out)
        return checks.check_simulate(self.last, self.oracle)

    def self_test(self):
        return checks.self_test_simulate(self.last, self.oracle)


class TrainWide:
    """`lpd train --lambda auto` on labeled CSVs with p = 5 n."""

    name = "train-wide"

    def __init__(self, workdir, seed):
        self.files = inputs.write_wide_files(workdir, seed)
        self.out = workdir / "model.json"
        self.checker = checks.TrainChecker()

    def argv(self, job):
        data = self.files[job % len(self.files)]
        return ["train", "--data", data.path, "--lambda", "auto", "--out", str(self.out)]

    def check(self, job):
        self.last = (checks.read_model(self.out), self.files[job % len(self.files)])
        return self.checker.check(*self.last)

    def self_test(self):
        return self.checker.self_test(*self.last)


class PredictBatch:
    """`lpd predict` on a large features-only CSV; the model is fitted in set-up."""

    name = "predict-batch"

    def __init__(self, workdir, seed):
        self.train, self.batch = inputs.write_batch_files(workdir, seed)
        self.pop = inputs.ar1_populations(inputs.BATCH_P)
        model_path = workdir / "batch-model.json"
        fit = run_child(JOB_CODE, ["train", "--data", self.train.path,
                                   "--lambda", str(inputs.BATCH_LAMBDA), "--out", str(model_path)],
                        workdir / "fit.log")
        if fit.returncode != 0:
            raise RuntimeError(f"set-up fit exited {fit.returncode}: "
                               + (workdir / "fit.log").read_text()[-2000:])
        self.model_path = model_path
        self.model = checks.read_model(model_path)
        self.out = workdir / "predictions.csv"

    def argv(self, job):
        return ["predict", "--model", str(self.model_path), "--data", self.batch.path,
                "--out", str(self.out)]

    def _args(self):
        return (self.model, self.batch, self.train.labels.tolist(), self.pop)

    def check(self, job):
        self.last = checks.read_predictions(self.out)
        return checks.check_predict(self.last, *self._args())

    def self_test(self):
        return checks.self_test_predict(self.last, *self._args())


WORKLOADS = {w.name: w for w in (Simulate, TrainWide, PredictBatch)}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {**{k: os.environ.get(k) for k in BLAS_THREADS}, "LPD_THREADS": None},
    }


class Run:
    """Jobs attempted and failed, and what went wrong, for one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.self_tested = False

    def record(self, job, returncode, log_path=None):
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            log = Path(log_path).read_text()[-2000:] if log_path else ""
            print(f"job {job} exited {returncode}: {log}", file=sys.stderr)
            return
        wrong = self.workload.check(job)
        if wrong:
            self.failed += 1
            self.correct = False
            print(f"job {job} output failed checks: {wrong}", file=sys.stderr)
        elif not self.self_tested:
            self.self_tested = True
            missed = self.workload.self_test()
            if missed:
                self.correct = False
                print(f"self-test: corrupted outputs passed checks {missed}", file=sys.stderr)


def measure(workload, workdir, seconds):
    """Closed loop of jobs; every other job is preceded by one set-up probe."""
    run = Run(workload)
    log = workdir / "job.log"
    run_child(SETUP_CODE, [], log)  # warm the bytecode and file caches
    setups, jobs = [], []
    start = time.perf_counter()
    while len(jobs) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if len(jobs) % 2 == 0:
            setups.append(run_child(SETUP_CODE, [], log).wall_s)
        workload.out.unlink(missing_ok=True)
        usage = run_child(JOB_CODE, workload.argv(len(jobs)), log)
        run.record(len(jobs), usage.returncode, log)
        jobs.append(usage)
    metrics = {
        "wall_s": (statistics.median(u.wall_s for u in jobs), "s"),
        "cpu_s": (statistics.median(u.cpu_s for u in jobs), "s"),
        "peak_rss_mb": (statistics.median(u.peak_rss_mb for u in jobs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(json.dumps({"jobs": len(jobs), "job_wall_s": [round(u.wall_s, 4) for u in jobs]}))
    return run, metrics


def traced(workload, seed, seconds):
    """Alternate untraced and traced in-process jobs on the run's first input."""
    sys.path.insert(0, str(SRC))
    import lpd.cli

    if not Path(lpd.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported lpd from {lpd.cli.__file__}, not {SRC}")
    run = Run(workload)
    tracer = spans.Tracer()
    argv = workload.argv(0)

    def job(trace_on):
        workload.out.unlink(missing_ok=True)
        if trace_on:
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = lpd.cli.main(argv)
                wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        run.record(0, code)
        return wall

    job(False)  # first call pays lazy imports and first-touch costs
    plain, with_trace, per_job = [], [], []
    start = time.perf_counter()
    while len(with_trace) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(job(False))
        job_spans = tracer.start_job()
        with_trace.append(job(True))
        per_job.append(spans.layer_metrics(job_spans))
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{workload.name}-{seed}.jsonl")
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        values = [m[name] for m in per_job]
        if unit == "count" and len(set(values)) != 1:
            run.correct = False
            print(f"{name} differs between identical traced jobs: {values}", file=sys.stderr)
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(with_trace) - statistics.median(plain), "s")
    return run, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lpd" / "cli.py").is_file():
        print(f"no program source at {SRC / 'lpd'}; run from a source checkout", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            run, metrics = traced(workload, args.seed, args.seconds)
        else:
            run, metrics = measure(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct and run.self_tested,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
