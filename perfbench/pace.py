"""The machine's pace: the time of a fixed piece of work.

The reference machine's host is shared, and its speed drifts in spells of
tens of seconds: one homology operation, repeated back to back, took from
370 to 730 ms within a minute, and process CPU time drifted with it. A
fixed pure-Python workload, timed just before and just after an
operation, slows down and speeds up with the operation. So the worker
scales each operation's time by REFERENCE_S / pace, and reports times as
they would read at the reference pace.

The work imports nothing from `wordcomplex`, so a change to the program
cannot change the pace. It does what the program does most: integer row
reduction, as in the Smith normal form, and subsequences gathered into a
set, as in subword enumeration.
"""

from __future__ import annotations

import math
import statistics
import time

# pace_s() on the reference machine, in a typical spell
REFERENCE_S = 0.006
TRIES = 3


def _work() -> int:
    n = 24
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            if f:
                row = [a * rows[k][k] - f * b for a, b in zip(rows[i], rows[k])]
                g = 0
                for x in row:
                    g = math.gcd(g, x)
                rows[i] = [x // g for x in row] if g > 1 else row
    word = "abcabcabcab"
    found = set()
    for mask in range(1, 1 << len(word)):
        found.add("".join(c for i, c in enumerate(word) if mask >> i & 1))
    return len(found)


def pace_s() -> float:
    """Median time of the fixed work over TRIES tries, in seconds."""
    times = []
    for _ in range(TRIES):
        t = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
