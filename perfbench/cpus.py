"""Move the benchmark to the fastest of the CPUs it may run on.

On a shared VM each virtual CPU has periods, seconds to tens of seconds
long, in which interpreter-bound code runs about 1.5x slower (most likely
because its physical core is busy with other work), and the CPUs enter
them independently.  The kernel keeps a single busy process on one CPU, so
a whole run could sit in such a period.  ``settle`` times a short
pure-Python loop on each allowed CPU and pins the process to the fastest;
the rounds call it before every timed block.  It acts only on this
process's own affinity.
"""

from __future__ import annotations

import os
import statistics
import time

# probing costs about 1 ms a CPU; a larger machine is left to the kernel
MAX_CPUS = 8

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _loop_s() -> float:
    """Median time of a short pure-Python loop on the current CPU."""
    times = []
    for _ in range(8):
        t = time.perf_counter()
        x = 0
        for i in range(2000):
            x += i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def settle() -> None:
    """Pin this process to the allowed CPU that runs the loop fastest now."""
    if not 2 <= len(_CPUS) <= MAX_CPUS:
        return
    speed = {}
    try:
        for cpu in _CPUS:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _loop_s()
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
    except OSError:
        # a CPU was taken away during the run; stay where the last pin put us
        return
