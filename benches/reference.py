"""A fixed reference computation that measures how fast the host runs
Python at the moment.

On a shared host the speed of a CPU changes by up to 1.7x within a
minute, which swamps the differences the benchmark has to resolve.  The
benchmark times this loop next to each measured call and reports the call
at the reference speed: ``seconds * REFERENCE_S / reference time``.  Host
drift slows the loop and the call alike and cancels; a change in the
program's own cost does not.
"""

import time

# typical time of reference_s() on the 2-vCPU Intel Xeon host (2.1 GHz)
# where the benchmark's bounds were set
REFERENCE_S = 0.025


def reference_s() -> float:
    """Wall time of one pass of the reference loop: dict inserts, string
    formatting and a keyed sort, the kind of work the pipeline does."""
    start = time.perf_counter()
    table = {}
    for i in range(60000):
        table[i] = (i, str(i))
    sorted(table.values(), key=lambda item: -item[0])
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference passes taking ``before`` and
    ``after`` seconds, rescaled to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
