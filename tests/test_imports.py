"""Commands load only what they use.

Importing SciPy's `scipy.linalg` or `scipy.special` costs about a third of a
second. `import lpd.cli`, `lpd predict` and `lpd screen` must leave no
`scipy` module loaded. `lpd train`, `lpd cv` and `lpd simulate` solve LPs
along the parametric-simplex path, which needs only numpy, so at these
problem sizes they load no SciPy either. The interior-point method that
takes what the path hands on (and model 2's precision inverse) loads
SciPy's LAPACK extension module, `scipy.linalg._flapack`, and that by
itself: never the `scipy.linalg` package or `scipy.special` (the
simulation's normal CDF is `math.erfc`); test_linalg checks that load. A
stray top-level import would put the cost back on every job.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lpd
from lpd.cli import main

SCRIPT = """
import sys
from lpd.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

data, model, batch, screened = sys.argv[1:]
assert scipy_modules() == [], scipy_modules()
assert main(["predict", "--model", model, "--data", batch, "--out", batch + ".out"]) == 0
assert main(["predict", "--model", model, "--data", data, "--has-labels",
             "--out", data + ".out"]) == 0
assert scipy_modules() == [], scipy_modules()
assert main(["screen", "--data", data, "--top-k", "2", "--var-min", "0.01", "--var-max", "100",
             "--out", screened, "--indices-out", screened + ".idx"]) == 0
assert scipy_modules() == [], scipy_modules()
assert main(["train", "--data", screened, "--lambda", "0.5", "--out", model + ".2"]) == 0
assert main(["cv", "--data", screened, "--folds", "2", "--grid-size", "3",
             "--out", screened + ".cv"]) == 0
assert main(["simulate", "--model-id", "3", "--p", "6", "--s0", "2", "--n1", "10", "--n2", "10",
             "--reps", "1", "--folds", "2", "--grid-size", "3", "--out", screened + ".sim"]) == 0
# Every solve stayed on the path, which loads no SciPy.
assert scipy_modules() == [], scipy_modules()
"""


def test_predict_and_screen_load_no_scipy(tmp_path):
    rng = np.random.default_rng(0)
    rows = [",".join([label] + [repr(float(v)) for v in rng.standard_normal(4) + shift])
            for label, shift in (("A", 3.0), ("B", 0.0)) for _ in range(10)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    batch = tmp_path / "batch.csv"
    batch.write_text("\n".join(row.split(",", 1)[1] for row in rows) + "\n")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
    src = str(Path(lpd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(data), str(model), str(batch),
         str(tmp_path / "screened.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


POOL_AND_MA_SCRIPT = """
import os, sys
from lpd import dataio
from lpd.cli import main

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
dataio.PIECE_BYTES = 1 << 20  # so the batch file is cut into pieces


def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.split(".")[0] in prefixes or m in prefixes)


def run(argv):
    assert main(argv) == 0, argv
    if os.environ["LPD_THREADS"] == "1":
        assert not forks, argv
    elif (os.cpu_count() or 1) >= 2:  # LPD_THREADS is clamped to the CPU count
        assert forks, argv
    forks.clear()
    assert loaded("multiprocessing", "concurrent") == [], (argv, loaded("multiprocessing", "concurrent"))
    assert loaded("numpy.ma") == [], (argv, loaded("numpy.ma"))


data, model, batch, work = sys.argv[1:]
assert loaded("multiprocessing", "concurrent") == [], loaded("multiprocessing", "concurrent")
run(["predict", "--model", model, "--data", batch, "--out", work + ".pred"])
assert main(["screen", "--data", data, "--top-k", "2", "--out", work + ".screen"]) == 0
run(["train", "--data", data, "--folds", "2", "--grid-size", "3", "--out", work + ".model"])
run(["cv", "--data", data, "--folds", "2", "--grid-size", "3", "--out", work + ".cv"])
run(["simulate", "--model-id", "3", "--p", "6", "--s0", "2", "--n1", "10", "--n2", "10",
     "--reps", "2", "--folds", "2", "--grid-size", "3", "--out", work + ".sim"])
"""


def test_solving_commands_load_no_numpy_ma(tmp_path):
    """`train --lambda auto`, `cv`, `simulate`, `predict` on a large file and
    `screen` load no `multiprocessing` or `concurrent` module and never load
    `numpy.ma` (np.unique imports it on its first call). At LPD_THREADS=1
    every fold and replication runs in the script's own process, where a load
    would show; at LPD_THREADS=2 (one BLAS thread) the commands fork their
    workers, and the parent's own part must load neither."""
    rng = np.random.default_rng(1)
    rows = [",".join([label] + [repr(float(v)) for v in rng.standard_normal(4) + shift])
            for label, shift in (("A", 3.0), ("B", 0.0)) for _ in range(10)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    batch = tmp_path / "batch.csv"
    batch.write_text("".join(",".join(map(repr, row)) + "\n"
                             for row in rng.standard_normal((30000, 4)).tolist()))
    assert batch.stat().st_size > 2 << 20
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
    src = str(Path(lpd.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, LPD_THREADS=threads, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", POOL_AND_MA_SCRIPT, str(data), str(model), str(batch),
             str(tmp_path / f"work{threads}")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (threads, result.stderr)


NO_RANDOM_SCRIPT = """
import os, sys
from lpd.cli import main


def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] == ["numpy", "random"] or m in ("secrets", "hashlib"))


data, work = sys.argv[1:]
assert main(["train", "--data", data, "--folds", "2", "--grid-size", "3", "--seed", "3",
             "--out", work + ".model"]) == 0
assert loaded() == [], loaded()
assert main(["cv", "--data", data, "--folds", "2", "--grid-size", "3", "--seed", str(2**64),
             "--out", work + ".cv"]) == 0
assert loaded() == [], loaded()
# a serial simulate draws its replications in this process; forked, only its workers draw
if os.environ["LPD_THREADS"] == "2" and (os.cpu_count() or 1) >= 2:
    assert main(["simulate", "--model-id", "3", "--p", "6", "--s0", "2", "--n1", "10",
                 "--n2", "10", "--reps", "2", "--folds", "2", "--grid-size", "3",
                 "--out", work + ".sim"]) == 0
    assert loaded() == [], loaded()
"""


def test_cv_jobs_load_no_numpy_random(tmp_path):
    """`train --lambda auto` and `cv` draw their folds without `numpy.random`, whose
    import loads `secrets` and `hashlib` (about 5 MB resident), at LPD_THREADS=1 (the
    folds fitted in the script's own process) and at 2 (forked). `simulate` forking
    its replications at LPD_THREADS=2 builds each replication's stream in its worker."""
    rng = np.random.default_rng(2)
    rows = [",".join([label] + [repr(float(v)) for v in rng.standard_normal(4) + shift])
            for label, shift in (("A", 3.0), ("B", 0.0)) for _ in range(10)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    src = str(Path(lpd.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, LPD_THREADS=threads, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", NO_RANDOM_SCRIPT, str(data), str(tmp_path / f"work{threads}")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, (threads, result.stderr)
