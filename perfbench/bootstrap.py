"""Process set-up shared by the perfbench entry points.

``prepare()`` caps BLAS and OpenMP threads at the number of usable cores
before numpy loads, and puts the checkout's own ``src`` first on
``sys.path``, so the benchmark always measures the source tree it sits in
and never an installed copy.  It must run before anything imports numpy or
sparsedom.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"      # outputs of a run; listed in .gitignore
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare() -> None:
    for var in THREAD_VARS:
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = NPROC
        os.environ[var] = str(max(1, min(current, NPROC)))
    package = SRC / "sparsedom"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sparsedom sources at {package}")
    sys.path.insert(0, str(SRC))
    import sparsedom

    loaded = Path(sparsedom.__file__).resolve().parent
    if loaded != package.resolve():
        raise SystemExit(f"perfbench: imported sparsedom from {loaded}, not {package}")


def scratch_dir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return SCRATCH


def remove_scratch_dir() -> None:
    try:
        SCRATCH.rmdir()
    except OSError:        # missing, or another run still uses it
        pass
