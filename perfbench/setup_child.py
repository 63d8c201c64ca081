"""One set-up sample, run in a fresh interpreter by run.py.

Prints the seconds spent importing the program plus running the workload's
warm-up units, at nominal host speed.  Generating the warm-up inputs is the
benchmark's own work and is not counted.  The host speed is sampled after
the timed part, because sampling it imports numpy, as the program does.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import sys
import time

import program

start = time.perf_counter()
program.import_heis()
imported = time.perf_counter() - start

import workloads  # noqa: E402  (imports heis, which must be timed above)

workload = workloads.WORKLOADS[sys.argv[1]]
units = workload.make(int(sys.argv[2]), workloads.WARMUP_UNITS)
start = time.perf_counter()
for unit in units:
    try:
        workload.run(unit.args)
    except Exception:  # a failing unit still warms the code it reached
        pass
warmed = time.perf_counter() - start

import hostspeed  # noqa: E402

hostspeed.sample()  # the first run pays for its own first calls
speed = [hostspeed.sample() for _ in range(6)]
print((imported + warmed) * hostspeed.factor(speed))
