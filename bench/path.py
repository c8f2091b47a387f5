"""The parametric-simplex path against the interior-point method on a whole grid, at paper scale.

    python3 bench/path.py                    # writes BENCH_14_path.json at the repo root
    python3 bench/path.py --quick --out /tmp/path.json
    python3 bench/path.py --wide             # writes BENCH_20_path.json at the repo root

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
at p=100.

`--wide` measures the path's work bound on wide data instead: one draw of
the model-3 design with n/2 rows per class for p in {300, 1000, 3000} and n
in {60, 100}, and its 20-point default grid. Per grid point it records the
interior-point time of that lambda alone (`solve_grid`), and along the
whole-grid `solve_path` the segment time, the pivots and the support size
|I| of each point the path certified; the grid's `handoff_index` is where
the bound sent the rest of the grid to `solve_grid` (null when it never
fired). The same grid without the bound is timed at p <= 1000. Each grid
index is also fitted alone, as `lpd train` makes its final fit, and timed
against the interior-point time. One BLAS thread throughout. Run from the
root of a source checkout; the program is imported from `src/`. Not part
of the test suite.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpd import l1solver  # noqa: E402
from lpd.classifier import auto_ridge, fit_lpd_path, lpd_problem  # noqa: E402
from lpd.errors import SolverError  # noqa: E402
from lpd.model_selection import default_lambda_grid, make_folds  # noqa: E402
from lpd.simulation import SimulationSpec, build_model, sample  # noqa: E402
from lpd.stats import compute_moments  # noqa: E402

FOLDS = 5
GRID_SIZE = 20
WIDE_P = (300, 1000, 3000)
WIDE_N = (60, 100)


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
    problem = lpd_problem(moments, auto_ridge(moments.p, moments.n1 + moments.n2), float(grid[0]))
    start = time.perf_counter()
    models = fit_lpd_path(moments, grid)
    path_s = time.perf_counter() - start
    start = time.perf_counter()
    ipm = l1solver.solve_grid(problem, grid)
    grid_s = time.perf_counter() - start
    with certified_times() as stamps:
        sols = l1solver.solve_path(problem, grid)
    certified = {lam: sol for lam, sol in zip(grid.tolist(), sols) if lam in stamps}
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


def wide_problem(p, n, seed):
    """One model-3 draw at p with n/2 rows per class, as the program `lpd train`
    solves (auto ridge, :func:`lpd.classifier.lpd_problem`), and its default grid."""
    spec = SimulationSpec(model_id=3, p=p, n1=n // 2, n2=n // 2, reps=1, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    moments = compute_moments(sample(build_model(spec, rng), spec, rng))
    problem = lpd_problem(moments, auto_ridge(p, n), 1.0)
    return problem, default_lambda_grid(moments, GRID_SIZE)


@contextlib.contextmanager
def certified_times(multiple=None):
    """{lambda: perf_counter when the path certified it}, filled while the block
    runs; ``multiple`` replaces the work bound's multiple (inf: no bound)."""
    stamps = {}
    certify, saved_multiple = l1solver._certify, l1solver._WORK_MULTIPLE

    def timed(sf, beta, y, lam, pivots):
        sol = certify(sf, beta, y, lam, pivots)
        if sol is not None:
            stamps[lam] = time.perf_counter()
        return sol

    l1solver._certify = timed
    if multiple is not None:
        l1solver._WORK_MULTIPLE = multiple
    try:
        yield stamps
    finally:
        l1solver._certify, l1solver._WORK_MULTIPLE = certify, saved_multiple


def timed_path(problem, grid, multiple=None):
    """(total seconds, solutions, per-index segment seconds or None where handed on)."""
    with certified_times(multiple) as stamps:
        start = time.perf_counter()
        sols = l1solver.solve_path(problem, grid)
        total = time.perf_counter() - start
    segments, last = [], start
    for lam in grid.tolist():
        if lam in stamps:
            segments.append(stamps[lam] - last)
            last = stamps[lam]
        else:
            segments.append(None)
    return total, sols, segments


def wide_case(p, n, seed):
    problem, grid = wide_problem(p, n, seed)
    ipm = []
    for lam in grid:
        start = time.perf_counter()
        (sol,) = l1solver.solve_grid(problem, [lam])
        ipm.append((time.perf_counter() - start, sol))
    total, sols, segments = timed_path(problem, grid)
    handoff = next((j for j, seg in enumerate(segments) if seg is None), None)
    points = [{
        "index": j,
        "lambda": float(grid[j]),
        "ipm_s": ipm_s,
        "ipm_iterations": ipm_sol.iterations,
        "ipm_status": ipm_sol.status,
        "on_path": segments[j] is not None,
        "path_segment_s": segments[j],
        "pivots": sols[j].iterations if segments[j] is not None else None,
        "support": int(np.count_nonzero(sols[j].beta)) if segments[j] is not None else None,
    } for j, (ipm_s, ipm_sol) in enumerate(ipm)]
    singles = []
    for j, lam in enumerate(grid):
        single_s, (sol,), (segment,) = timed_path(problem, grid[j : j + 1])
        singles.append({"index": j, "s": single_s, "on_path": segment is not None,
                        "pivots": sol.iterations if segment is not None else None,
                        "ipm_s": ipm[j][0], "ratio_to_ipm": single_s / ipm[j][0]})
    case = {
        "p": p, "n": n, "k": n,
        "ipm_work": l1solver._ipm_work(p, n),
        "grid": {"path_s": total, "solve_grid_s": sum(t for t, _ in ipm),
                 "handoff_index": handoff, "points": points},
        "single_lambda": singles,
        "single_lambda_max_ratio_to_ipm": max(s["ratio_to_ipm"] for s in singles),
    }
    if p <= 1000:
        unbounded_s, _, unbounded = timed_path(problem, grid, float("inf"))
        case["grid"]["unbounded_path_s"] = unbounded_s
        case["grid"]["unbounded_segment_s"] = unbounded
    print(f"p={p} n={n}: grid {total:.2f} s (hand-off at index {handoff}) against "
          f"{case['grid']['solve_grid_s']:.2f} s interior point"
          + (f" and {case['grid']['unbounded_path_s']:.2f} s unbounded path" if p <= 1000 else "")
          + f"; single lambda at most {case['single_lambda_max_ratio_to_ipm']:.2f}x the "
          f"interior point (handed on at {[s['index'] for s in singles if not s['on_path']]})",
          flush=True)
    return case


def wide_main(args):
    cases = [wide_case(p, n, args.seed) for p in WIDE_P for n in WIDE_N]
    report = {
        "what": "the work bound of solve_path on wide model-3 draws: per grid point the "
                "interior-point time alone, the bounded whole-grid path's segment time, "
                "pivots and support where it certified, and where it handed on; each "
                "grid lambda fitted alone against the interior point",
        "command": "python3 bench/path.py " + " ".join(sys.argv[1:]),
        "seed": args.seed,
        "grid_size": GRID_SIZE,
        "work_multiple": l1solver._WORK_MULTIPLE,
        "environment": environment(),
        "cases": cases,
    }
    out = args.out or str(ROOT / "BENCH_20_path.json")
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


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
    parser.add_argument("--wide", action="store_true",
                        help="the work bound on wide draws (writes BENCH_20_path.json)")
    parser.add_argument("--out", help="default BENCH_14_path.json, or BENCH_20_path.json "
                                      "with --wide, at the repo root")
    args = parser.parse_args()
    if args.wide:
        wide_main(args)
        return

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
    out = args.out or str(ROOT / "BENCH_14_path.json")
    Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
