"""Host-speed calibration: a fixed kernel timed next to every measurement.

The speed of a shared virtual machine can drift by half over a few
minutes, and the library runs slower in step with it, so raw wall times
of two runs minutes apart are not comparable.  The kernel below is fixed
pure-Python work of the same kind as the library's inner loops: sparse
products of dicts keyed by exponent tuples, with Fraction coefficients.
Timing it just before and just after a task, and dividing the task's time
by it, cancels the host's speed.  Multiplying by ``REF_S`` turns the
ratio back into seconds on a host where the kernel takes ``REF_S``.  One
reading is the median of three short runs, so that a single interruption
of the kernel does not count as a change of speed.

This file is part of the benchmark's definition: changing the kernel or
``REF_S`` changes every time the benchmark reports.
"""

import gc
from time import perf_counter

# The kernel's time on a 2-vCPU x86-64 Linux VM with Python 3.11 in its
# faster periods, so that reported times are close to that VM's wall times.
REF_S = 0.022

_N = 9


def _kernel_once() -> float:
    from fractions import Fraction  # imported here: set-up probes time imports

    t0 = perf_counter()
    a = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(_N) for j in range(_N)}
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in a.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], (k1[2] + k2[2]) % 5)
            s = out.get(k, Fraction(0)) + c1 * c2
            if s:
                out[k] = s
            else:
                del out[k]
    return perf_counter() - t0


def kernel_s() -> float:
    """The median wall time, in seconds, of three runs of the kernel.

    The garbage collector is off while they run, so that the library's heap
    does not change the kernel's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return sorted(_kernel_once() for _ in range(3))[1]
    finally:
        if was_enabled:
            gc.enable()
