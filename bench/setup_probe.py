"""Time one set-up of a workload in a fresh process.

Usage: python3 bench/setup_probe.py <workload> <seed> <size>

Set-up is importing chowtaut and building the workload's inputs.  A fresh
process is needed because a module is only imported once per process.
Prints two numbers on stdout: the set-up's seconds, and the host-speed
kernel's seconds measured right after it.
"""

import sys
from time import perf_counter

import hostspeed
import workloads as wl


def main(argv: list[str]) -> int:
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    ref = wl.load_reference()
    t0 = perf_counter()
    wl.setup(workload, seed, size, ref)
    setup_s = perf_counter() - t0
    print(repr(setup_s), repr(hostspeed.kernel_s()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
