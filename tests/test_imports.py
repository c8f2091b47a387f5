"""Commands load only what they use.

Importing SciPy's `scipy.linalg` or `scipy.special` costs about a third of a
second. `import lpd.cli`, `lpd predict` and `lpd screen` must leave no
`scipy` module loaded. `lpd train`, `lpd cv` and `lpd simulate` solve LPs,
so they load SciPy's LAPACK extension module, `scipy.linalg._flapack`, but
by itself: never the `scipy.linalg` package or `scipy.special` (the
simulation's normal CDF is `math.erfc`). A stray top-level import would put
the cost back on every job.
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
# The check can see SciPy: the solves loaded its LAPACK extension, and only that.
assert scipy_modules() == ["scipy.linalg._flapack"], scipy_modules()
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
import sys
from lpd.cli import main

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.split(".")[0] in prefixes or m in prefixes)

data, model, batch, work = sys.argv[1:]
assert loaded("multiprocessing", "concurrent") == [], loaded("multiprocessing", "concurrent")
assert main(["predict", "--model", model, "--data", batch, "--out", work + ".pred"]) == 0
assert main(["screen", "--data", data, "--top-k", "2", "--out", work + ".screen"]) == 0
assert loaded("multiprocessing", "concurrent") == [], loaded("multiprocessing", "concurrent")
assert main(["train", "--data", data, "--folds", "2", "--grid-size", "3",
             "--out", work + ".model"]) == 0
assert main(["cv", "--data", data, "--folds", "2", "--grid-size", "3", "--out", work + ".cv"]) == 0
assert main(["simulate", "--model-id", "3", "--p", "6", "--s0", "2", "--n1", "10", "--n2", "10",
             "--reps", "2", "--folds", "2", "--grid-size", "3", "--out", work + ".sim"]) == 0
assert loaded("numpy.ma") == [], loaded("numpy.ma")
"""


def test_solving_commands_load_no_numpy_ma(tmp_path):
    """`import lpd.cli`, `predict` and `screen` load no process pool, and the solving
    commands never load `numpy.ma` (np.unique imports it on its first call). They
    run serially here, LPD_THREADS=1, so a load would happen in this process."""
    rng = np.random.default_rng(1)
    rows = [",".join([label] + [repr(float(v)) for v in rng.standard_normal(4) + shift])
            for label, shift in (("A", 3.0), ("B", 0.0)) for _ in range(10)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    batch = tmp_path / "batch.csv"
    batch.write_text("\n".join(row.split(",", 1)[1] for row in rows) + "\n")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
    src = str(Path(lpd.__file__).resolve().parents[1])
    env = dict(os.environ, LPD_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", POOL_AND_MA_SCRIPT, str(data), str(model), str(batch),
         str(tmp_path / "work")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
