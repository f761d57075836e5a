"""The machine's current speed, from a fixed calibration loop.

This machine's speed drifts by up to 1.7x over minutes (other tenants share
its cores), which swamps any difference between two versions of the
program.  Timings are therefore also given in reference seconds: wall
seconds times REFERENCE_LOOP_S over what the calibration loop takes right
now.  The loop does the kind of work the program does (small-int and bitset
arithmetic, Fractions, dicts, calls), so it slows down the way the program
does; it never changes, so it cancels out of every comparison between two
versions of the program.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time at the reference speed: its median on a quiet 2-vCPU
# 2.0 GHz Xeon VM under Python 3.11.7
REFERENCE_LOOP_S = 0.0017
SAMPLES = 7


def _loop():
    acc = Fraction(0)
    table = {}
    bits = 0
    for i in range(1, 700):
        acc += Fraction(i % 7, i % 5 + 1)
        bits ^= 1 << (i % 61)
        table[i % 97] = table.get(i % 97, 0) + bits.bit_count()
    return acc, table


def speed_factor():
    """Reference seconds per wall second at this moment."""
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return REFERENCE_LOOP_S / statistics.median(times)
