"""A fixed reference kernel that measures how fast the machine is right now.

On a host whose cores are shared with other tenants, the speed of
pure-Python code can swing by up to 2x within seconds (measured on a 2-core
Intel Xeon VM with CPython 3.11).  The benchmark therefore times this
kernel next to every op and also reports each op's latency in *ref* units:
multiples of the kernel's duration at that moment.  The kernel is
interpreted Python in two parts, like the program's two kinds of hot code:
an integer loop (the exhaustive walk) and building, summing and sorting many
small ``Fraction`` and tuple objects (tournament and profile handling),
which also feels memory contention.  It is frozen here so that no change to
the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction


def _kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(10000):
        acc += (i * i) % 7
        table[i & 63] = acc
    m = 30
    weights = {
        (i, j): Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
        for i in range(m)
        for j in range(i + 1, m)
    }
    borda = [Fraction(0)] * m
    for (i, j), w in weights.items():
        borda[i] += w
        borda[j] -= w
    order = sorted(range(m), key=lambda v: (-borda[v], v))
    rows = sorted(tuple((i * j) % 5 for j in range(m)) for i in range(m))
    return acc + len(table) + order[0] + len(rows)


def reference_seconds() -> float:
    """One run of the kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
