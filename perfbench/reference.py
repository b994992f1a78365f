"""The reference loop: a fixed piece of pure-Python work that does not
touch tt2.

The speed of this machine's cores changes by up to 2x within a fraction of
a second, as other work shares them.  The loop slows with the program, so
the benchmark times it next to every timed op and set-up and reports times
at the speed at which the loop takes ``REF_NOMINAL_S``.  This module
imports nothing of tt2, so that set-up interpreters can run the loop too.
"""

import time

REF_LOOPS = 30_000
# About the loop's wall time on an unloaded core of a 2-vCPU Xeon virtual
# machine under Python 3.11.
REF_NOMINAL_S = 0.010


def reference() -> float:
    """Wall seconds of the reference loop."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(REF_LOOPS):
        table[i & 1023] = (i, str(i))
        total += len(table.get((i * 7) & 1023, (0, ""))[1])
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """Seconds scaled from the core speed at which the reference loop took
    ``reference_s`` to the speed at which it takes ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / reference_s
