"""The parametric-simplex path against the batched interior-point grid, at paper scale.

    python3 bench/path.py                    # writes BENCH_14_path.json at the repo root
    python3 bench/path.py --quick --out /tmp/path.json

Draws one replication of `lpd simulate --model-id 3 --p 400` (n1 = n2 = 200)
as `simulation._run_replication` draws it, and takes its six lambda grids:
the 20-point default grid at the train set's moments, solved on each of the
5 CV folds' train moments and on the whole train set. Each grid is solved
by `classifier.fit_lpd_path` (the path, with the interior-point method for
what it cannot certify) and by `l1solver.solve_grid` (the interior-point
method alone). Per grid the file records both wall times, the path's pivots
to the smallest lambda, the share of the grid the path certified, the
statuses `solve_grid` returned, and the largest relative difference in
||beta||_1 between the two where both are optimal. `--quick` runs the same
at p=100. One BLAS thread throughout. Run from the root of a source
checkout; the program is imported from `src/`. Not part of the test suite.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpd import l1solver  # noqa: E402
from lpd.classifier import auto_ridge, fit_lpd_path  # noqa: E402
from lpd.errors import SolverError  # noqa: E402
from lpd.model_selection import default_lambda_grid, make_folds  # noqa: E402
from lpd.simulation import SimulationSpec, build_model, sample  # noqa: E402
from lpd.stats import compute_moments  # noqa: E402

FOLDS = 5
GRID_SIZE = 20


def grids(p, seed):
    """(name, moments) of the replication's five CV folds and its refit, and their grid."""
    spec = SimulationSpec(model_id=3, p=p, reps=1, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    truth = build_model(spec, rng)
    train = sample(truth, spec, rng)
    sample(truth, spec, rng)  # the test set, drawn to keep the stream in step
    fold_seed = int(rng.integers(0, 2**31 - 1))
    full = compute_moments(train)
    fold_ids = make_folds(train, FOLDS, fold_seed)
    named = [(f"fold {k}", compute_moments(train.subset(np.flatnonzero(fold_ids != k))))
             for k in range(FOLDS)]
    return named + [("refit", full)], default_lambda_grid(full, GRID_SIZE)


def compare(moments, grid):
    rho = auto_ridge(moments.p, moments.n1 + moments.n2)
    problem = l1solver.LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=float(grid[0]),
                                 ridge_rho=rho, factor=moments.factor)
    start = time.perf_counter()
    models = fit_lpd_path(moments, grid)
    path_s = time.perf_counter() - start
    start = time.perf_counter()
    ipm = l1solver.solve_grid(problem, grid)
    grid_s = time.perf_counter() - start
    certified = l1solver._trace_path(l1solver.build_lp(problem),
                                     sorted(set(grid.tolist()), reverse=True))
    agreement = max((abs(np.abs(m.beta).sum() - s.objective) / (1 + s.objective)
                     for m, s in zip(models, ipm)
                     if not isinstance(m, SolverError) and s.status == l1solver.OPTIMAL),
                    default=float("nan"))
    statuses = [type(s).__name__ if isinstance(s, SolverError) else s.status for s in ipm]
    return {
        "path_s": path_s,
        "solve_grid_s": grid_s,
        "speedup": grid_s / path_s,
        "pivots": max((sol.iterations for sol in certified.values()), default=0),
        "certified": len(certified) / len(set(grid.tolist())),
        "path_failures": sum(isinstance(m, SolverError) for m in models),
        "solve_grid_statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
        "solve_grid_iterations": sum(s.iterations for s in ipm if not isinstance(s, SolverError)),
        "max_rel_objective_difference": agreement,
        "support_at_smallest_lambda": int(np.count_nonzero(certified[min(certified)].beta))
        if certified else None,
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="the `lpd simulate --seed`")
    parser.add_argument("--quick", action="store_true", help="p=100 instead of p=400")
    parser.add_argument("--out", default=str(ROOT / "BENCH_14_path.json"))
    args = parser.parse_args()

    p = 100 if args.quick else 400
    named, grid = grids(p, args.seed)
    results = []
    for name, moments in named:
        result = {"grid": name, **compare(moments, grid)}
        results.append(result)
        print(f"p={p} {name:7s} path {result['path_s']:7.3f} s ({result['pivots']} pivots, "
              f"{100 * result['certified']:.0f}% certified)  solve_grid "
              f"{result['solve_grid_s']:7.3f} s {result['solve_grid_statuses']}  "
              f"x{result['speedup']:.2f}  |dobj| {result['max_rel_objective_difference']:.1e}",
              flush=True)
    report = {
        "what": "one simulate --model-id 3 replication: per lambda grid, wall time of "
                "fit_lpd_path (parametric simplex, interior point for uncertified points) "
                "against l1solver.solve_grid (interior point), pivots, certified share, "
                "and relative ||beta||_1 agreement where both are optimal",
        "command": "python3 bench/path.py " + " ".join(sys.argv[1:]),
        "p": p,
        "seed": args.seed,
        "grid_size": GRID_SIZE,
        "environment": environment(),
        "grids": results,
        "total": {
            "path_s": sum(r["path_s"] for r in results),
            "solve_grid_s": sum(r["solve_grid_s"] for r in results),
            "certified": sum(r["certified"] for r in results) / len(results),
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
