"""`lpd train` at a gene-expression shape: the peak memory of the `lpd` process and its workers.

    python3 bench/gene_shape.py --p 2000 --lam 0.5
    python3 bench/gene_shape.py --p 2000 --lam auto --threads 2 --src ../other-checkout/src

Writes a labeled CSV of n1 = 47 and n2 = 25 rows (the shape of the paper's
leukemia set) in p dimensions, drawn from the AR(1) design of
perfbench/inputs.py: unit variances, correlation AR1_RHO^|i-j|, class 2
shifted by 1 on the first S0 coordinates, rows shuffled. The rows are drawn
by the AR(1) recursion, so no p x p matrix is formed. Then runs `lpd train
--lambda LAM` on it in a fresh python process at one BLAS thread and
LPD_THREADS=THREADS, importing the program from SRC (default: this
checkout's `src/`). Prints one JSON line: the wall time, the process's own
VmHWM at exit, and RUSAGE_CHILDREN's ru_maxrss, the high-water mark of its
largest reaped worker (a forked worker's includes what it shares with the
process at the fork). Not part of the test suite.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

N1, N2 = 47, 25
JOB_CODE = """import resource, sys
from lpd.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("peak_rss_kb", hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
          file=sys.stderr)
sys.exit(code)
"""


def write_gene_file(path, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N1 + N2, p))
    scale = math.sqrt(1.0 - inputs.AR1_RHO**2)
    for j in range(1, p):  # x_j = rho x_{j-1} + sqrt(1 - rho^2) e_j
        x[:, j] = inputs.AR1_RHO * x[:, j - 1] + scale * x[:, j]
    x[N1:, : inputs.S0] += 1.0
    labels = np.repeat([1, 2], [N1, N2])
    order = rng.permutation(labels.size)
    inputs.write_csv(path, x[order], labels[order])


def run(src, data, lam, threads, out):
    env = dict(os.environ, PYTHONPATH=str(src), LPD_THREADS=str(threads),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", JOB_CODE, "train", "--data", str(data),
                           "--lambda", lam, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = proc.stderr.splitlines()[-1].split() if proc.stderr else []
    hwm_kb, child_kb = (float(last[1]), float(last[2])) if last[:1] == ["peak_rss_kb"] else (0, 0)
    model = json.loads(Path(out).read_text()) if proc.returncode == 0 else {}
    return {
        "returncode": proc.returncode,
        "wall_s": round(wall, 2),
        "lpd_hwm_mb": round(hwm_kb / 1024, 1),
        "largest_worker_mb": round(child_kb / 1024, 1),
        "lambda": model.get("lambda"),
        "support": int(np.count_nonzero(model["beta"])) if model else None,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--lam", default="0.5", help="a lambda, or auto")
    parser.add_argument("--threads", type=int, default=1, help="LPD_THREADS")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--src", default=str(ROOT / "src"), help="where lpd is imported from")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "gene.csv"
        write_gene_file(data, args.p, args.seed)
        result = run(args.src, data, args.lam, args.threads, Path(tmp) / "model.json")
    print(json.dumps({"p": args.p, "n1": N1, "n2": N2, "seed": args.seed, "lam": args.lam,
                      "threads": args.threads, "src": args.src, **result}))


if __name__ == "__main__":
    main()
