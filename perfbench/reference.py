"""The reference kernel: a fixed piece of pure-Python work timed next to every job.

A shared host changes speed for minutes at a time, in CPU time as well as in
wall time, and a run cannot outlast that.  The gated timing metrics are
therefore job time ÷ the time this kernel took just before the job, in the
same process and the same spell.  The kernel does the kinds of work the
program does (small objects, dict copies, sorted tuples, hashing, frozensets,
integer arithmetic, JSON) and uses nothing from ``cbtopo``, so a change to the
program moves the numerator only.  Do not change it: every figure measured
in its units would change with it.
"""
from __future__ import annotations

import json
import time

# The kernel's typical time on the host the baseline was measured on (Python
# 3.11.7, 2 vCPUs of an Intel Xeon).  ``setup_s`` must be in seconds, so
# set-up time ÷ kernel time is scaled back by this: seconds at that speed.
KERNEL_S = 0.008


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a = a
        self.b = b
        self.c = c

    def key(self):
        return (self.a, self.b, self.c)


_DOC = [{"v": [i, i % 3], "c": [[j, str(j)] for j in range(4)]} for i in range(200)]


def kernel() -> int:
    base = {i: _Item(i, i % 3, (i,)) for i in range(200)}
    acc = 0
    for r in range(20):
        copy = dict(base)
        copy[r] = _Item(r, 0, ())
        acc ^= hash(tuple(sorted(item.key() for item in copy.values())))
    seen = set()
    for i in range(2000):
        seen.add(frozenset((i % 97, i % 13, i % 7)))
    for i in range(40000):
        acc += i * i % 7
    return acc + len(seen) + len(json.loads(json.dumps(_DOC)))


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
