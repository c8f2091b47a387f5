"""Commands load only what they use.

SciPy costs about half a second to import, and only the solver (LAPACK) and
the simulation's error rates (`ndtr`) need it. `import lpd.cli`, `lpd
predict` and `lpd screen` must leave no `scipy` module loaded; a stray
top-level import would put the cost back on every job.
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
# The check can see SciPy: training solves an LP, and that loads it.
assert main(["train", "--data", screened, "--lambda", "0.5", "--out", model + ".2"]) == 0
assert "scipy.linalg" in scipy_modules()
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
