"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Times ``import levykit`` plus building the workload's specs, measures,
weights and tails, and prints the seconds as the last line of stdout.
"""

import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import levykit  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]][0]()
print(repr(time.perf_counter() - T0))
