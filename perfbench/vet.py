"""Find the candidate inputs on which an `lpd` job fails.

    python3 perfbench/vet.py simulate-p100 train-wide predict-batch

Runs every candidate of inputs.py through `lpd.cli.main` in process, as a
job would run it (one BLAS thread, no LPD_THREADS), and prints the ones
whose job fails: a simulate report with a failed replication, or a train
that exits non-zero. These are the *_LEFT_OUT sets of inputs.py. It takes
about 8 minutes for simulate-p100 and 3 for train-wide on one core.
"""

import contextlib
import io
import json
import shutil
import sys

import run  # sets the one-thread environment before numpy loads

import checks  # noqa: E402
import inputs  # noqa: E402

sys.path.insert(0, str(run.SRC))
from lpd.cli import main  # noqa: E402


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue().strip().splitlines()[-1:]


def vet_simulate(workdir):
    out = str(workdir / "report.csv")
    for seed in inputs.simulate_candidates():
        code, err = quiet_main(["simulate", "--model-id", "3", "--p", str(inputs.SIM_P),
                                "--reps", str(inputs.SIM_REPS), "--seed", str(seed), "--out", out])
        if code != 0:
            yield seed, {"exit": code, "stderr": err}
            continue
        table = {(s, n): m for s, n, m, _ in checks.read_report(out)}
        if table[("meta", "reps_failed")] != 0:
            yield seed, {"reps_failed": table[("meta", "reps_failed")]}


def vet_train(workdir, count, candidate, extra):
    path, out = str(workdir / "train.csv"), str(workdir / "model.json")
    for k in range(count):
        inputs.write_csv(path, *candidate(k))
        code, err = quiet_main(["train", "--data", path, *extra, "--out", out])
        if code != 0:
            yield k, {"exit": code, "stderr": err}


VETTERS = {
    "simulate-p100": vet_simulate,
    "train-wide": lambda w: vet_train(w, inputs.WIDE_CANDIDATES, inputs.wide_candidate,
                                      ["--lambda", "auto"]),
    "predict-batch": lambda w: vet_train(w, inputs.BATCH_TRAIN_CANDIDATES,
                                         inputs.batch_train_candidate,
                                         ["--lambda", str(inputs.BATCH_LAMBDA)]),
}

if __name__ == "__main__":
    for name in sys.argv[1:] or VETTERS:
        workdir = run.OUT / f"vet-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            left_out = []
            for key, why in VETTERS[name](workdir):
                left_out.append(key)
                print(json.dumps({"workload": name, "candidate": key, **why}), flush=True)
            print(json.dumps({"workload": name, "left_out": left_out}), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
