#!/usr/bin/env python3
"""One-shot reference figures too long for a benchmark workload.

    python3 bench/oneshot.py

Prints, with the thread settings of bench/run.py (one BLAS thread):
  - cond_report wall time, peak RSS and the computed size of the SparseRhs
    pattern masks for one random-gv Table-2
    instance (m=20, rho=0.3) at n = 160, 320 and 640;
  - ``qscond verify --n 4 --m 2 --trials 40`` in-process with
    QSCOND_THREADS = 1 and = 2, best of three.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qscond import cli, cond_report, gen_random_gv, gen_sparse_rhs, gv_to_qs, qs_materialize  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    for n in (160, 320, 640):
        gv = gen_random_gv(n, 1)
        rhs = gen_sparse_rhs(n, 20, 0.3, 2)
        X = np.linalg.solve(qs_materialize(gv_to_qs(gv)), rhs.materialize())
        t0 = time.perf_counter()
        cond_report(gv, rhs, X=X)
        masks = rhs.num_terms * n * 20 * 8 / 2**20
        print(
            f"cond_report n={n} m=20 rho=0.3: {time.perf_counter() - t0:.2f} s, "
            f"peak RSS so far {rss_mb():.0f} MB, SparseRhs masks {masks:.0f} MB (computed)",
            flush=True,
        )
    for threads in ("1", "2"):
        os.environ["QSCOND_THREADS"] = threads
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["verify", "--n", "4", "--m", "2", "--trials", "40", "--seed", "0"])
            best = min(best, time.perf_counter() - t0)
        print(f"verify --n 4 --m 2 --trials 40, QSCOND_THREADS={threads}: {best:.3f} s (exit {rc})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
