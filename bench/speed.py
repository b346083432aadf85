"""Host speed against a fixed piece of reference work.

The shared host this benchmark was defined on runs the same Python code up
to 1.6x faster or slower for minutes at a time, and every op of a run moves
with it.  The benchmark therefore reports times at a reference speed: a
wall time is multiplied by `speed_scale()`, taken at about the same moment.
`reference_work` is part of the benchmark and never changes with the
program, so a change to the program moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Median time of `reference_work` on the 2-core x86 VM (Python 3.11) the
# benchmark was defined on: times are reported as if the host ran at this speed.
REFERENCE_S = 0.002
# A run times `reference_work` before each op that starts at least this
# long after the last timing.
SPEED_SAMPLE_EVERY_S = 0.5


def reference_work() -> int:
    """A product of two 72-term polynomials held as exponent-tuple dicts, mod 7.

    The same kind of work as the library's inner loops (dicts keyed by
    tuples, small-int arithmetic), so that it speeds up and slows down with
    the host as the program does.
    """
    a = {(i, j): (3 * i + j) % 7 + 1 for i in range(12) for j in range(6)}
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            v = (out.get(e, 0) + c1 * c2) % 7
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return len(out)


def speed_scale() -> float:
    """REFERENCE_S over the median of five timings of `reference_work`.

    A wall time measured now, multiplied by this, is the time at the
    reference speed.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)
