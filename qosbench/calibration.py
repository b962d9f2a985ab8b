"""A fixed calibration kernel: how fast this machine runs Python now.

The kernel is a small single-server event loop (heap pushes and pops,
bisect inserts into a sorted list, slotted objects, dict updates) over a
fixed pseudo-random input: the same kinds of work the simulator does,
in the benchmark's own code, so no change to ``src/`` can move it.

Shared hosts run it at two or more speeds, for seconds at a time, with
the same CPU time as wall time (the slowdown is in the core, not in
scheduling). So every timed block of the benchmark is paired with the
kernel's time measured next to it, and host-time end-to-end metrics are
reported at the speed of a reference machine: a block's time is scaled
by ``REFERENCE_S`` over its kernel time (see :func:`at_reference`).
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time

#: Best-of time of :func:`kernel` on the machine the benchmark's
#: baseline was first recorded on (2 vCPUs, Intel Xeon, Python 3.11).
REFERENCE_S = 0.0030


class _Job:
    __slots__ = ("arrival", "size", "ratio")

    def __init__(self, arrival: float, size: float):
        self.arrival = arrival
        self.size = size
        self.ratio = 0.0


def kernel(n: int = 2000) -> float:
    """Run the kernel once; return its host seconds.

    The collector is paused so the time does not depend on how large the
    calling process's heap is, only on the machine."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(n)
    finally:
        if was_enabled:
            gc.enable()


def _run(n: int) -> float:
    start = time.perf_counter()
    x = 12345
    heap: list = []
    ranked: list = []
    now = 0.0
    totals: dict[int, float] = {}
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (now + (x % 1000) / 10.0, i, _Job(now, 1.0 + x % 97)))
        if len(heap) > 8:
            t, _, job = heapq.heappop(heap)
            job.ratio = (t - job.arrival + job.size) / job.size
            bisect.insort(ranked, (job.ratio, i))
            if len(ranked) > 64:
                ranked.pop(0)
            now = t
        totals[i % 511] = totals.get(i % 511, 0.0) + i * 0.5
    return time.perf_counter() - start


def samples(count: int = 5) -> list[float]:
    return [kernel() for _ in range(count)]


def probe() -> float:
    """The kernel's typical time right now (median of a short burst)."""
    return statistics.median(samples())


def at_reference(host_s: float, kernel_s: float) -> float:
    """``host_s`` measured while the kernel took ``kernel_s``, expressed
    at the reference machine's speed."""
    return host_s * REFERENCE_S / kernel_s
