"""Pinned BLAS threads, the package's import path, the machine record and speed."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported: OpenBLAS reads the variables once,
    when it loads.  One thread keeps the small 6 x 6 blocks fast and the
    timings steady on a shared two-core machine.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = threads
    if not os.path.isfile(os.path.join(SRC, "ionphonon", "__init__.py")):
        raise FileNotFoundError(f"no ionphonon package under {SRC}")
    sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for fresh interpreters: same threads, same import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "machine": platform.machine(),
    }


class Calibration:
    """Samples of the machine's momentary speed.

    One sample is the wall time of a fixed mix of interpreter work, small
    LAPACK calls and a vector exp -- the kinds of work the requests do,
    without the package.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 50_000)
        a = np.random.default_rng(1).random((6, 6))
        self._a = a + a.T
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for j in range(1500):
            s += j * j
        for _ in range(10):
            self._np.linalg.eigh(self._a)
        self._np.exp(-self._x).sum()
        self.samples.append(time.perf_counter() - t0)

    def around(self, index: int) -> float:
        """Median sample over the dozen taken around request ``index``."""
        return statistics.median(self.samples[max(0, index - 5): index + 7])
