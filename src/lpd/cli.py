"""Command-line interface.

Subcommands: train, predict, cv, simulate, screen. Exit codes: 0 success,
1 usage error, 2 data error, 3 solver failure. All randomness flows from
--seed flags; repeated runs with identical flags produce byte-identical
output files at a fixed BLAS thread count (the BLAS splits its sums by
thread, so another count can move beta in its last bits). LPD_THREADS caps
the worker processes that run the CV folds of `train --lambda auto` and
`cv`, the replications of `simulate`, and the pieces of a large plain
--data file that `train`, `predict`, `cv` and `screen` read: a positive
integer, clamped to the CPU count, and the CPU count when unset; any other
value is a usage error. Outputs do not depend on it. The work runs
serially, in one process, when the process already runs more than one
thread, as it does when the BLAS starts its own threads. So the `lpd`
console script (lpd_main) sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, before numpy loads; a value
the user set is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import dataio
# `predict` is no longer called here; it stays importable as lpd.cli.predict,
# the name perfbench/spans.py traces.
from .classifier import decision_scores, fit_lpd_from_moments, predict  # noqa: F401
from .errors import DataError, LpdError, SolverError
from .model_selection import CvPlan, cross_validate, default_lambda_grid
from .simulation import METHOD_ORDER, SimulationSpec, check_run_options, run_benchmark
from .stats import compute_moments, t_statistic_screen, variance_filter

USAGE_ERROR, DATA_ERROR, SOLVER_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _flag_values(command):
    """Report a ValueError raised while checking flag values as a one-line usage error."""
    try:
        yield
    except ValueError as exc:
        print(f"lpd {command}: error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from None


def _schema_args(parser):
    parser.add_argument("--delimiter", default=",", help="field delimiter (default ',')")
    parser.add_argument(
        "--label-column", type=int, default=0, help="0-based label column (default 0)"
    )
    parser.add_argument("--has-header", action="store_true", help="skip the first row")


def _schema(args):
    with _flag_values(args.command):
        return dataio.DataFileSchema(
            delimiter=args.delimiter, label_column=args.label_column, has_header=args.has_header
        )


def _reader(args):
    """(schema, worker cap) for reading --data; a bad flag or LPD_THREADS is a usage error."""
    schema = _schema(args)
    with _flag_values(args.command):
        return schema, _max_workers()


def _positive_float(text):
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _rho_value(text):
    if text == "auto":
        return None
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("rho must be >= 0 or 'auto'")
    return value


def _lambda_value(text):
    if text == "auto":
        return "auto"
    return _positive_float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lpd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model on a labeled CSV")
    train.add_argument("--data", required=True)
    train.add_argument("--lambda", dest="lam", type=_lambda_value, default="auto",
                       help="constraint radius, or 'auto' to choose by CV")
    train.add_argument("--folds", type=int, default=5)
    train.add_argument("--grid-size", type=int, default=20)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--rho", type=_rho_value, default="auto",
                       help="ridge perturbation, or 'auto' for sqrt(log p / n)")
    train.add_argument("--indices", default=None,
                       help="index map written by `screen --indices-out`; lets the "
                            "model accept original-width inputs")
    train.add_argument("--out", required=True)
    train.add_argument("--verbose", action="store_true", help="print solver diagnostics")
    _schema_args(train)

    pred = sub.add_parser("predict", help="score a CSV of samples with a saved model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--has-labels", action="store_true",
                      help="the data file carries a label column to ignore")
    _schema_args(pred)

    cv = sub.add_parser("cv", help="report CV correct-counts over a lambda grid")
    cv.add_argument("--data", required=True)
    cv.add_argument("--grid-size", type=int, default=20)
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--out", default=None, help="write CSV here instead of stdout")
    _schema_args(cv)

    sim = sub.add_parser("simulate", help="run a replicated synthetic benchmark")
    sim.add_argument("--model-id", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--n1", type=int, default=200)
    sim.add_argument("--n2", type=int, default=200)
    sim.add_argument("--s0", type=int, default=10)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--dist", choices=("normal", "t5"), default="normal")
    sim.add_argument("--reps", type=int, default=20)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--methods", default=",".join(METHOD_ORDER),
                     help="comma-separated subset of " + ",".join(METHOD_ORDER))
    sim.add_argument("--folds", type=int, default=5)
    sim.add_argument("--grid-size", type=int, default=20)
    sim.add_argument("--out", required=True)

    screen = sub.add_parser("screen", help="variance-filter and t-screen features")
    screen.add_argument("--data", required=True)
    screen.add_argument("--var-min", type=float, default=None)
    screen.add_argument("--var-max", type=float, default=None)
    screen.add_argument("--scale", type=float, default=1.0)
    screen.add_argument("--top-k", type=int, default=None)
    screen.add_argument("--out", required=True)
    screen.add_argument("--indices-out", default=None,
                        help="also write the kept-column index map")
    _schema_args(screen)

    return parser


def _cross_validate(args, data, moments, ridge_rho=None):
    """CV over the default grid sized by --grid-size, with --folds, --seed and LPD_THREADS."""
    with _flag_values(args.command):
        grid = default_lambda_grid(moments, args.grid_size)
        plan = CvPlan(folds=args.folds, lambda_grid=grid, seed=args.seed)
        max_workers = _max_workers()
    return cross_validate(data, plan, ridge_rho=ridge_rho, max_workers=max_workers)


def _cmd_train(args):
    data = dataio.load_dataset(args.data, *_reader(args))
    moments = compute_moments(data)
    provenance = {
        "data": str(args.data),
        "seed": args.seed,
        "rho_source": "auto" if args.rho is None else "fixed",
    }
    if args.lam == "auto":
        result = _cross_validate(args, data, moments, ridge_rho=args.rho)
        lam = result.chosen_lambda
        provenance.update(
            lambda_source="cv", folds=args.folds, grid_size=args.grid_size,
            grid_max=float(result.lambda_grid[0]), grid_min=float(result.lambda_grid[-1]),
            cv_correct=int(result.per_lambda_correct()[lam]),
        )
    else:
        lam = args.lam
        provenance["lambda_source"] = "fixed"
    model = fit_lpd_from_moments(moments, lam, ridge_rho=args.rho)
    if args.indices is not None:
        ids = dataio.load_indices(args.indices)
        try:  # through the constructor, so the model's own check runs
            model = dataclasses.replace(model, kept_indices=ids)
        except ValueError:
            msg = f"{args.indices}: {ids.size} indices but the model has {model.p} features"
            raise DataError(msg) from None
    model.metadata.update(provenance)
    dataio.save_model(args.out, model)
    if args.verbose:
        print(
            "solver: {iterations} iterations, duality gap {duality_gap:.2e}, "
            "max residual {max_residual:.6g}".format(**model.metadata)
        )
    print(f"wrote {args.out} (lambda={lam:g}, rho={model.ridge_rho:g})")
    return 0


def _load_feature_rows(path, args):
    if args.has_labels:
        return dataio.load_dataset(path, *_reader(args)).features
    return dataio.load_features(path, *_reader(args))


def _cmd_predict(args):
    model = dataio.load_model(args.model)
    scores = decision_scores(model, _load_feature_rows(args.data, args))
    # the batch is freed here, before the predictions file's text is built
    classes = np.where(scores >= model.threshold, 1, 2)
    dataio.save_predictions(args.out, classes, scores)
    print(f"wrote {args.out} ({len(np.atleast_1d(classes))} predictions)")
    return 0


def _cmd_cv(args):
    data = dataio.load_dataset(args.data, *_reader(args))
    result = _cross_validate(args, data, compute_moments(data))
    text = dataio.save_cv_table(args.out, result)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out} (chosen lambda={result.chosen_lambda:g})")
    return 0


def _max_workers():
    """Worker cap from LPD_THREADS: a positive integer, at most the CPU count
    and the CPU count when unset."""
    raw = os.environ.get("LPD_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"LPD_THREADS must be a positive integer, got {raw!r}")
    return min(value, os.cpu_count() or 1)


def _cmd_simulate(args):
    with _flag_values("simulate"):
        spec = SimulationSpec(
            model_id=args.model_id,
            p=args.p,
            n1=args.n1,
            n2=args.n2,
            s0=args.s0,
            rho=args.rho,
            distribution=args.dist,
            reps=args.reps,
            seed=args.seed,
        )
        methods = check_run_options(
            [m.strip() for m in args.methods.split(",") if m.strip()], args.folds, args.grid_size
        )
        max_workers = _max_workers()
    report = run_benchmark(
        spec, methods=methods, cv_folds=args.folds, grid_size=args.grid_size,
        max_workers=max_workers,
    )
    dataio.save_report(args.out, report)
    summary = ", ".join(
        f"{m}={report.error_mean[m]:.2f}%" for m in METHOD_ORDER if m in report.methods
    )
    print(f"wrote {args.out} ({report.reps_completed} reps: {summary})")
    return 0


def _cmd_screen(args):
    want_variance = args.var_min is not None or args.var_max is not None
    with _flag_values("screen"):
        if want_variance and (args.var_min is None or args.var_max is None):
            raise ValueError("--var-min and --var-max go together")
        if not want_variance and args.top_k is None:
            raise ValueError("nothing to do; pass variance bounds and/or --top-k")
    data = dataio.load_dataset(args.data, *_reader(args))
    kept = np.arange(data.p)
    with _flag_values("screen"):
        if want_variance:
            data, kept_v = variance_filter(data, args.var_min, args.var_max, args.scale)
            kept = kept[kept_v]
        if args.top_k is not None:
            data, kept_t = t_statistic_screen(data, args.top_k)
            kept = kept[kept_t]
        dataio.save_dataset(args.out, data, _schema(args),
                            indices=(args.indices_out, kept) if args.indices_out else None)
    print(f"wrote {args.out} ({kept.size} features kept)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
    "simulate": _cmd_simulate,
    "screen": _cmd_screen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, or a usage error already reported on stderr
        return int(exc.code or 0)
    except SolverError as exc:
        print(f"lpd: solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except (DataError, OSError) as exc:
        print(f"lpd: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except LpdError as exc:
        print(f"lpd: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
