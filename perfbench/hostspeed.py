"""A fixed pure-Python task whose time tracks the host's current speed.

The virtual machine the benchmark was built on runs identical work at two
speeds about 1.5x apart, for stretches of ten seconds to minutes, in
process CPU time as much as in wall time, with its other vCPU idle and no
steal time: something outside the machine sets its pace.  Wall-clock
figures of whole 60 s runs then spread up to 0.27 (quartile distance
over median, ten seeds) whatever statistic is taken.  So every round
times this task first, in its fresh process before the package is
imported, and run.py scales the round's end-to-end times to the pace of
a reference host, multiplying them by ``REFERENCE_S`` / pace.  The task does the kinds of work the package does (integer
row reduction, fractions, dicts, sorting) in code it shares with nothing
in the package, and it runs before the package is loaded, so no change to
the program changes its time.
"""

import gc
import math
import time
from fractions import Fraction

# seconds ``task`` takes on the reference host: about its median on the
# machine the benchmark was built on (see README.md, Machine)
REFERENCE_S = 0.2

N = 18         # matrix size of one reduction
REPEATS = 240  # reductions per task


def task():
    """The fixed work; returns a checksum so nothing is optimised away."""
    return hash(tuple(_reduce(seed) for seed in range(REPEATS)))


def _reduce(seed):
    rows = [[(i * 7919 + j * 104729 + seed * 31) % 97 - 48
             for j in range(N)] for i in range(N)]
    for k in range(N):
        pivot = next((i for i in range(k, N) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p = rows[k][k]
        for i in range(k + 1, N):
            q = rows[i][k]
            if q:
                row = [a * p - q * b for a, b in zip(rows[i], rows[k])]
                g = math.gcd(*row) or 1
                rows[i] = [a // g for a in row]
    total = sum((Fraction(r[-1], r[0] or 1) for r in rows), Fraction(0))
    seen = {}
    for i, r in enumerate(rows):
        for j, a in enumerate(r):
            seen[(a % 31, j % 7)] = seen.get((a % 31, j % 7), 0) + i
    return hash((total, tuple(sorted(seen.items()))))


def measure(clock=time.perf_counter):
    """Seconds one ``task`` takes now, with the garbage collector paused."""
    gc.disable()
    try:
        t0 = clock()
        task()
        return clock() - t0
    finally:
        gc.enable()

