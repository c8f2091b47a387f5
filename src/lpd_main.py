"""The `lpd` console script: `lpd.cli.main` on one BLAS thread unless the user chose a count.

OpenBLAS starts one thread per core when numpy loads it. At the sizes `lpd`
solves, those threads cost more than they save, and a process that has
them runs its CV folds, replications and file pieces serially rather than
on forked workers (`lpd.parallel`). So `OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` are set to 1 where they are unset,
before numpy loads. This module sits outside the `lpd` package, whose
import loads numpy; `import lpd` leaves the environment alone.

    python -m lpd_main train --data train.csv --out model.json
"""

import os
import sys


def main():
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from lpd.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
