"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins the BLAS libraries to one thread before numpy is imported, so a run
is one single-threaded process, then hands over to `harness.main`.  The
last line of standard output is the result as one JSON object; the full
record (provenance, argv of every command, per-round times) is written
under .perfbench_out/results/.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    sys.exit(harness.main())
