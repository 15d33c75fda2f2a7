"""Benchmark-harness configuration.

Each benchmark is a single expensive experiment; pytest-benchmark is configured
through ``benchmark.pedantic(..., rounds=1, iterations=1)`` inside the tests so
experiments are not repeated.

BLAS pools are pinned to one thread, as ``perfbench/run.py`` pins them: on a
2-core host OpenBLAS would otherwise start a second thread that competes with
the measured code, and timing gates would read the contention.  Pytest imports
this file before any benchmark module, so numpy is not loaded yet and reads
the pinned values when it is.
"""

import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# make `helpers` importable when pytest is run from the repository root
sys.path.insert(0, str(Path(__file__).parent))
