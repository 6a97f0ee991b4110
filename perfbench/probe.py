"""Machine-speed probe: a fixed pure-Python task timed next to every sample.

On a shared VM the CPU runs at different speeds over seconds and minutes as
neighbours come and go (up to 1.75x apart on the 2-core machine this was
built on), which moves every wall time with it. Each timed operation is
bracketed by this probe, and its time is reported in reference seconds:
``wall * REFERENCE_S / probe``, where ``probe`` is the mean of the probe times
just before and just after it. The probe uses only the standard library, so a
change to monocal cannot move it. It does what monocal does most: builds
tuples, formats and parses floats, sorts and sums.
"""

import statistics
import time

# About the probe's time on the 2-core VM this was built on when no neighbour
# is busy; a unit, not a threshold. Reference seconds equal wall seconds when
# the probe runs this fast.
REFERENCE_S = 0.002


def _task() -> float:
    rows = []
    for i in range(2000):
        x = (i * 7919 % 10007) * 0.001
        rows.append((x, repr(x * 3.0)))
    rows.sort()
    total = 0.0
    for x, text in rows:
        total += float(text) - x
    return total


def probe_seconds() -> float:
    """Median of three timings of the fixed task."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
