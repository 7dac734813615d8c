"""A fixed reference computation that the benchmark times beside tiltcell.

The machine the benchmark runs on is shared, and its speed drifts by up
to 2x from second to second and over minutes.  Each worker times
`measure()` right before and after every timed operation, on the same
CPU and in the same process, and `run.py` divides the operation's wall
time by it.  The time metrics are therefore seconds at a fixed reference
speed: measured seconds x REFERENCE_S / yardstick seconds.

The computation is the same kind of work as tiltcell's (elimination over
Q with Fraction and over F_p with ints, tuple-keyed dicts, sorting), is
deterministic, and imports nothing from tiltcell, so no change to the
program can change it.  It keeps well under a megabyte live, so it does
not move peak_rss_mib, and runs with the garbage collector off, so the
size of tiltcell's heap in the same process does not change its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# median seconds of measure() on the machine the baseline was recorded on
# (a shared 2-vCPU Intel Xeon VM, Python 3.11.7); it only fixes the unit
REFERENCE_S = 0.020

_P = 10007


def _matrix(n, m, seed, mod):
    """Deterministic pseudo-random n x m entries in [0, mod)."""
    x = seed
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append((x >> 16) % mod)
        rows.append(row)
    return rows


def _rref(rows, inverse, reduce):
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = inverse(rows[r][c])
        rows[r] = [reduce(x * inv) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [reduce(x - f * y) for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def _work():
    q = _rref([[Fraction(v - 3) for v in row] for row in _matrix(12, 15, 1, 7)],
              lambda a: 1 / a, lambda a: a)
    p = _rref(_matrix(30, 38, 2, _P), lambda a: pow(a, _P - 2, _P), lambda a: a % _P)
    table = {}
    for i in range(8000):
        key = (i % 211, i % 17)
        table[key] = table.get(key, 0) + i
    return q[0][-1], p[-1][-1], sorted(table.items(), reverse=True)[0]


def measure() -> float:
    """Wall seconds of one reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
