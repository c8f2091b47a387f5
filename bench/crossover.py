"""Where the low-rank Newton step beats the dense one.

    python3 bench/crossover.py                 # writes BENCH_4.json at the repo root
    python3 bench/crossover.py --repeats 5 --out /tmp/crossover.json

For every p in {100, 200, 300, 600, 1000} and n in {60, 200}, draws one
two-class AR(1) sample (the `lpd simulate --model-id 3` design, n/2 rows per
class), forms its moments, and solves the l1 program at three lambdas of the
default CV grid twice: once on the dense Newton path (no factor) and once on
the low-rank path (the centred-data factor, k = n columns). The low-rank
path is forced even where the solver's rule (2k < p) would not take it, so
both sides of the rule are measured. Each solve is repeated and its median
wall time kept; the file records those medians, the iteration counts, the
dense fallbacks of the low-rank path, nproc, and the numpy, scipy and BLAS
versions. One BLAS thread throughout. Run from the root of a source
checkout; the program is imported from `src/`. Not part of the test suite.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpd import l1solver  # noqa: E402
from lpd.classifier import auto_ridge  # noqa: E402
from lpd.model_selection import default_lambda_grid  # noqa: E402
from lpd.simulation import SimulationSpec, build_model, sample  # noqa: E402
from lpd.stats import compute_moments  # noqa: E402

P_VALUES = (100, 200, 300, 600, 1000)
N_VALUES = (60, 200)
GRID_POINTS = (4, 9, 14)  # of the 20-point default grid: large, middle and small lambda


@contextlib.contextmanager
def low_rank_everywhere():
    """Let the solver take the low-rank step whatever the factor's width."""
    rule = l1solver._low_rank
    l1solver._low_rank = lambda p, k: True
    try:
        yield
    finally:
        l1solver._low_rank = rule


def timed_solve(problem, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        sol = l1solver.solve(problem)
        times.append(time.perf_counter() - start)
    return statistics.median(times), sol


def run_path(moments, lambdas, rho, factor, repeats):
    total_s, iterations, fallbacks, not_optimal = 0.0, 0, 0, 0
    for lam in lambdas:
        problem = l1solver.LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=lam,
                                     ridge_rho=rho, factor=factor)
        seconds, sol = timed_solve(problem, repeats)
        total_s += seconds
        iterations += sol.iterations
        fallbacks += sol.fallbacks
        not_optimal += sol.status != l1solver.OPTIMAL
    return {
        "solve_s": total_s / len(lambdas),
        "ms_per_iteration": 1e3 * total_s / max(iterations, 1),
        "iterations": iterations,
        "fallbacks": fallbacks,
        "not_optimal": not_optimal,
    }


def case(p, n, repeats, seed):
    spec = SimulationSpec(model_id=3, p=p, n1=n // 2, n2=n - n // 2, seed=seed)
    data = sample(build_model(spec), spec, np.random.default_rng(seed))
    moments = compute_moments(data)
    grid = default_lambda_grid(moments, 20)
    lambdas = [float(grid[i]) for i in GRID_POINTS]
    rho = auto_ridge(p, n)
    dense = run_path(moments, lambdas, rho, None, repeats)
    with low_rank_everywhere():
        low = run_path(moments, lambdas, rho, moments.factor, repeats)
    k = moments.factor.shape[1]
    return {
        "p": p,
        "n": n,
        "k": k,
        "rule_picks": "low_rank" if 2 * k < p else "dense",
        "lambdas": lambdas,
        "dense": dense,
        "low_rank": low,
        "speedup": dense["solve_s"] / low["solve_s"],
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="solves per (case, path, lambda)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_4.json"))
    args = parser.parse_args()

    cases = []
    for n in N_VALUES:
        for p in P_VALUES:
            result = case(p, n, args.repeats, args.seed)
            cases.append(result)
            print(f"p={p:5d} n={n:4d} rule={result['rule_picks']:8s} "
                  f"dense {1e3 * result['dense']['solve_s']:8.1f} ms/solve "
                  f"({result['dense']['ms_per_iteration']:.2f} ms/it, {result['dense']['iterations']} it)  "
                  f"low-rank {1e3 * result['low_rank']['solve_s']:8.1f} ms/solve "
                  f"({result['low_rank']['ms_per_iteration']:.2f} ms/it, "
                  f"{result['low_rank']['iterations']} it, {result['low_rank']['fallbacks']} fallbacks)  "
                  f"x{result['speedup']:.2f}", flush=True)
    report = {
        "what": "median wall time per l1 solve on the dense and the low-rank Newton paths; "
                "solve_s is the mean over the lambdas of each lambda's median over repeats",
        "command": "python3 bench/crossover.py " + " ".join(sys.argv[1:]),
        "repeats": args.repeats,
        "seed": args.seed,
        "grid_points": list(GRID_POINTS),
        "environment": environment(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
