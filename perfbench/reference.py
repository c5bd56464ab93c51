"""A fixed reference probe that gauges how fast the core runs right now.

On a small shared host, other tenants slow a core by 20-50 % for stretches
of milliseconds to minutes.  The guest cannot see it: a process's CPU time
grows with its wall time.  Two cores do not slow together, but one core's
speed 15 ms apart is strongly correlated.  So ``run.py`` pins itself and
every child to one core and, while a child runs, wakes every
``INTERVAL_S`` to time this probe on that core in its own thread's CPU
time.  A child's CPU time times ``NOMINAL_S`` over the mean probe time reads
as the time the child would take on that core running at the speed where
one probe takes ``NOMINAL_S``.  The ``library`` worker, whose calls are too
short for that, runs the probe itself between its calls (``library.run_ops``).

The probe is plain Python doing what k4graph does most: fraction-free
integer elimination on small Gram-like matrices, with gcd reduction and
tuple hashing.  Its inputs are fixed and it does not import k4graph, so no
change to the program moves it.  It takes about 1 ms, short enough to run
within one scheduler slice, so the child does not preempt it.
"""

from __future__ import annotations

import math
import random
import time
from typing import List

Matrix = List[List[int]]

INTERVAL_S = 0.05  # time between probes while a child runs
NOMINAL_S = 0.001  # one probe's CPU time on an idle core (Xeon, Python 3.11)


def _eliminate(m: Matrix) -> Matrix:
    m = [row[:] for row in m]
    for k in range(len(m)):
        for i in range(k + 1, len(m)):
            f, p = m[i][k], m[k][k] or 1
            m[i] = [x * p - f * y for x, y in zip(m[i], m[k])]
            g = 0
            for x in m[i]:
                g = math.gcd(g, x)
            if g > 1:
                m[i] = [x // g for x in m[i]]
    return m


def make_inputs(count: int = 5, n: int = 10) -> List[Matrix]:
    rng = random.Random(12345)
    return [
        [[rng.randrange(-3, 4) + (6 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(count)
    ]


def probe(mats: List[Matrix]) -> float:
    """CPU seconds this thread takes to run the kernel once on ``mats``."""
    start = time.thread_time_ns()
    seen = {tuple(map(tuple, _eliminate(m))) for m in mats}
    elapsed = (time.thread_time_ns() - start) / 1e9
    if len(seen) != len(mats):
        raise RuntimeError("reference probe gave a wrong result")
    return elapsed
