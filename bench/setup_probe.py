"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <repo root> <workload> <seed> <work dir>

The clock starts before numpy and vrprox are imported, so the figure covers
import, config parse and problem construction (``setup_s``).
"""

from time import perf_counter

_t0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    root, name, seed, workdir = sys.argv[1:5]
    workloads.WORKLOADS[name](Path(root), int(seed), Path(workdir)).setup()
    print(repr(perf_counter() - _t0))
