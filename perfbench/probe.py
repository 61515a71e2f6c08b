"""Set-up probe: import the program and generate a workload's inputs.

`run.py` starts this in a fresh interpreter from the checkout root, as
`python3 perfbench/probe.py <workload> <seed>`.  The only output is the
CLOCK_MONOTONIC reading taken once the inputs exist; CLOCK_MONOTONIC is
system-wide, so the parent subtracts its own reading at spawn time.  The
probe imports nothing the set-up does not need, so that `setup_s` is the
program's import time plus input generation.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from shiftsieve import cli  # noqa: E402,F401

workloads.make_jobs(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
