"""In-process span tracing of one `lpd` job, from outside the program.

`Tracer.install` wraps the public functions of each lpd module at the name
where the caller looks them up: `classifier` imports `solve` by name, so the
wrapper goes on `lpd.classifier.solve`; `l1solver` calls
`linalg.spd_factor` through the module, so it goes on `lpd.linalg`. The one
private function wrapped is the features-only CSV reader in `lpd.cli`; its
span is named `dataio.parse` so the name holds when the reader moves into
`dataio`. `uninstall` puts every original back.

Each call records a span (name, start, end, parent span, counts) in the
list of the current job; span ids and parents index that list. Spans stay
in memory until `write_jsonl`. A call made inside an open span of the same
name is not recorded again, so nested readers are not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(np.asarray(args[1])).shape[0])}


def _cells(args, kwargs, result):
    features = getattr(result, "features", result)
    return {"cells": int(np.asarray(features).size)}


def _solution(args, kwargs, result):
    return {"iterations": int(result.iterations), "not_optimal": int(result.status != "optimal")}


def _order(args, kwargs, result):
    return {"p": int(np.shape(args[0])[0])}


def _reps(args, kwargs, result):
    return {"reps": int(result.reps_completed + result.reps_failed),
            "reps_failed": int(result.reps_failed)}


# (module, attribute, span name, counts taken from the call)
WRAPPED = [
    ("lpd.cli", "_load_feature_rows", "dataio.parse", _cells),
    ("lpd.dataio", "load_dataset", "dataio.parse", _cells),
    *[("lpd.dataio", name, "dataio.write", None) for name in (
        "save_model", "save_predictions", "save_report", "save_cv_table",
        "save_dataset", "save_indices")],
    *[(mod, "compute_moments", "stats.moments", None) for mod in (
        "lpd.cli", "lpd.model_selection", "lpd.simulation", "lpd.classifier")],
    *[(mod, "cross_validate", "model_selection.cv", None) for mod in ("lpd.cli", "lpd.simulation")],
    *[(mod, "fit_lpd_from_moments", "classifier.fit_lpd", None) for mod in (
        "lpd.cli", "lpd.model_selection", "lpd.simulation")],
    *[("lpd.simulation", name, "classifier.baselines", None) for name in (
        "fit_naive_bayes", "fit_glda", "fit_ofair", "oracle_fisher")],
    *[(mod, "predict", "classifier.predict", _rows) for mod in (
        "lpd.cli", "lpd.model_selection", "lpd.simulation")],
    ("lpd.cli", "decision_scores", "classifier.predict", _rows),
    ("lpd.classifier", "solve", "l1solver.solve", _solution),
    ("lpd.linalg", "spd_factor", "linalg.spd_factor", _order),
    ("lpd.linalg", "spd_solve", "linalg.spd_solve", None),
    ("lpd.linalg", "sym_eigen", "linalg.sym_eigen", None),
    ("lpd.cli", "run_benchmark", "simulation.run", _reps),
    ("lpd.simulation", "sample", "simulation.sample", None),
]


class Tracer:
    def __init__(self):
        self.jobs: list[list[Span]] = []
        self._stack: list[int] = []
        self._saved: list = []

    def start_job(self) -> list[Span]:
        """Begin a new job; its spans are collected in the returned list."""
        self.jobs.append([])
        return self.jobs[-1]

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.jobs[-1]
            if any(spans[i].name == name for i in self._stack):
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            spans.append(span)
            self._stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self):
        import importlib

        for module_name, attr, name, counts in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counts))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for job, spans in enumerate(self.jobs):
                for i, s in enumerate(spans):
                    handle.write(json.dumps({
                        "job": job, "id": i, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "error": s.error, "counts": s.counts,
                    }) + "\n")


# (metric name, unit): unit "count" marks an exact count, which must repeat.
LAYER_METRICS = [
    ("dataio.parse_s", "s"), ("dataio.parse_mcells_per_s", "Mcell/s"), ("dataio.write_s", "s"),
    ("stats.moments_s", "s"), ("stats.moments_calls", "count"),
    ("model_selection.cv_s", "s"), ("model_selection.cv_self_s", "s"),
    ("model_selection.fits", "count"), ("model_selection.fits_failed", "count"),
    ("classifier.fit_lpd_s", "s"), ("classifier.fit_lpd_calls", "count"),
    ("classifier.baselines_s", "s"),
    ("classifier.predict_s", "s"), ("classifier.predict_rows", "count"),
    ("l1solver.solves", "count"), ("l1solver.iterations", "count"),
    ("l1solver.iterations_max", "count"), ("l1solver.solve_s", "s"), ("l1solver.self_s", "s"),
    ("l1solver.ms_per_iteration", "ms"), ("l1solver.not_optimal", "count"),
    ("linalg.spd_factor_calls", "count"), ("linalg.spd_factor_s", "s"),
    ("linalg.spd_factor_gflop_per_s", "GFLOP/s"), ("linalg.spd_factor_rejected", "count"),
    ("linalg.spd_solve_calls", "count"), ("linalg.spd_solve_s", "s"), ("linalg.sym_eigen_s", "s"),
    ("simulation.replication_s", "s"), ("simulation.sample_s", "s"), ("simulation.refit_s", "s"),
    ("simulation.reps", "count"), ("simulation.reps_failed", "count"),
]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one job's spans; a layer that did not run reads 0."""
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def pick(name, parent_name=None):
        return [spans[i] for i in by_name.get(name, [])
                if parent_name is None
                or (spans[i].parent is not None and spans[spans[i].parent].name == parent_name)]

    def total(name, parent_name=None):
        return sum(s.duration for s in pick(name, parent_name))

    def self_time(name):
        return sum(spans[i].duration - child_time[i] for i in by_name.get(name, []))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in pick(name))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    solves = pick("l1solver.solve")
    iterations = count("l1solver.solve", "iterations")
    factors = pick("linalg.spd_factor")
    fits_in_cv = pick("classifier.fit_lpd", "model_selection.cv")
    reps = count("simulation.run", "reps")
    m = {
        "dataio.parse_s": total("dataio.parse"),
        "dataio.parse_mcells_per_s": ratio(count("dataio.parse", "cells"), total("dataio.parse"), 1e-6),
        "dataio.write_s": total("dataio.write"),
        "stats.moments_s": total("stats.moments"),
        "stats.moments_calls": len(pick("stats.moments")),
        "model_selection.cv_s": total("model_selection.cv"),
        "model_selection.cv_self_s": self_time("model_selection.cv"),
        "model_selection.fits": len(fits_in_cv),
        "model_selection.fits_failed": sum(s.error is not None for s in fits_in_cv),
        "classifier.fit_lpd_s": total("classifier.fit_lpd"),
        "classifier.fit_lpd_calls": len(pick("classifier.fit_lpd")),
        "classifier.baselines_s": total("classifier.baselines"),
        "classifier.predict_s": total("classifier.predict"),
        "classifier.predict_rows": count("classifier.predict", "rows"),
        "l1solver.solves": len(solves),
        "l1solver.iterations": iterations,
        "l1solver.iterations_max": max((s.counts.get("iterations", 0) for s in solves), default=0),
        "l1solver.solve_s": total("l1solver.solve"),
        "l1solver.self_s": self_time("l1solver.solve"),
        "l1solver.ms_per_iteration": ratio(total("l1solver.solve"), iterations, 1e3),
        "l1solver.not_optimal": count("l1solver.solve", "not_optimal"),
        "linalg.spd_factor_calls": len(factors),
        "linalg.spd_factor_s": total("linalg.spd_factor"),
        "linalg.spd_factor_gflop_per_s": ratio(
            sum(s.counts["p"] ** 3 / 3.0 for s in factors), total("linalg.spd_factor"), 1e-9),
        "linalg.spd_factor_rejected": sum(s.error == "NotPositiveDefinite" for s in factors),
        "linalg.spd_solve_calls": len(pick("linalg.spd_solve")),
        "linalg.spd_solve_s": total("linalg.spd_solve"),
        "linalg.sym_eigen_s": total("linalg.sym_eigen"),
        "simulation.replication_s": ratio(total("simulation.run"), reps),
        "simulation.sample_s": total("simulation.sample"),
        "simulation.refit_s": total("classifier.fit_lpd", "simulation.run"),
        "simulation.reps": reps,
        "simulation.reps_failed": count("simulation.run", "reps_failed"),
    }
    assert list(m) == [name for name, _ in LAYER_METRICS]
    return m
