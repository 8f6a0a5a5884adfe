"""Reference work that measures how fast the host runs Python right now.

On a shared machine the speed of one CPU drifts by up to 2x over seconds, as
other tenants load the host. Every timed interval of the benchmark is
therefore bracketed by `reference_work_s()` and rescaled by `scale`, so that
it reads as seconds on a machine where the reference work takes
`REFERENCE_S`. The raw wall times are printed next to the rescaled ones.

The reference work allocates many small objects and compares token sets,
as the program's hot paths do. Of the candidates tried, it tracked the
program's speed best. It uses only the standard library, so no change to
the program can speed it up.
"""

from __future__ import annotations

import time

# About what one unit of reference work takes on the 2-CPU Xeon (2.1 GHz,
# Python 3.11) the benchmark was defined on.
REFERENCE_S = 0.005

_OBSERVED = frozenset(("timeout", "http", "503", "retry"))


def _unit() -> None:
    records = [
        (i % 13, "tool-%d" % i, frozenset(("timeout", "http", str(500 + i % 7), "k%d" % (i % 5))))
        for i in range(3000)
    ]
    score = 0
    for _, _, tokens in records:
        score += len(_OBSERVED & tokens) * 1000 // len(_OBSERVED | tokens)
    records.sort(key=lambda record: (record[0], record[1]))


def reference_work_s() -> float:
    """Fastest of three timings of one fixed unit of interpreter work.

    The fastest drops a timing that an interrupt happened to land in.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before_s: float, after_s: float) -> float:
    """`seconds` of wall time, rescaled by the reference work measured around it."""
    return seconds * REFERENCE_S / ((before_s + after_s) / 2)
