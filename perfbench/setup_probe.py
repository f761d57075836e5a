"""Time one workload's set-up in a fresh interpreter; print wall and
reference seconds (see calibration.py).

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing the program plus building the workload's fixed inputs
(the gadget and its embedding library, the sphere regions, the J list).
"""

import sys
from time import perf_counter

start = perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
wall = perf_counter() - start

from calibration import speed_factor  # noqa: E402

print(wall, wall * speed_factor())
