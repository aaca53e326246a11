"""Host-speed normalization of the benchmark's time measurements.

The host this benchmark runs on shares its cores: its speed drifts by tens
of percent within seconds and stays slow or fast for minutes, and a flow's
CPU time drifts with its wall time, so neither more samples nor CPU time
remove it.  :class:`HostClock` times a fixed pure-Python kernel (the
benchmark's own code, so no change to the program can move it) every
:data:`INTERVAL_S` seconds between flows.  A measured interval is then
reported in reference seconds: scaled by :data:`REFERENCE_S` over the
median kernel time of the :data:`NEIGHBOURS` kernel samples taken nearest
to it, i.e. the time the work would take on a host on which the kernel
takes :data:`REFERENCE_S`.  A slower program still reads slower; a slower
host does not.  (Over the same runs, the median of the neighbours left a
smaller seed-to-seed spread than their minimum, a wider neighbourhood or
one factor for the whole run.)
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

#: kernel time that one reference second is defined by (about the kernel's
#: typical time on a 2-core x86 cloud VM, so reference seconds read close to
#: wall seconds there)
REFERENCE_S = 0.004
#: how often :meth:`HostClock.poll` samples the kernel
INTERVAL_S = 0.2
#: kernel samples around a measurement that its scale is taken from
NEIGHBOURS = 6
#: size of the kernel's graph: about 4 ms of work
KERNEL_NODES = 5000


class _Node:
    __slots__ = ("a", "b", "weight")

    def __init__(self, a: int, b: int, weight: int) -> None:
        self.a, self.b, self.weight = a, b, weight


def kernel() -> int:
    """Fixed work in the program's idiom: objects, dicts, sets, a graph walk."""
    nodes = {i: _Node((i * 7919) % (i + 1), (i * 104729) % (i + 1), i & 31) for i in range(KERNEL_NODES)}
    seen = set()
    total = 0
    for root in range(KERNEL_NODES):
        stack = [root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            node = nodes[n]
            total += node.weight
            stack.append(node.a)
            stack.append(node.b)
    return total + len(sorted(seen, key=lambda n: -nodes[n].weight))


class HostClock:
    """Kernel timings over a run, and the scale they give each instant."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (midpoint, kernel seconds)
        self._due = 0.0

    def sample(self) -> None:
        # with the collector off the kernel's time cannot depend on how many
        # objects the program left on the heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((start + end) / 2, end - start))

    def poll(self) -> None:
        """Sample the kernel if :data:`INTERVAL_S` passed since the last sample."""
        now = time.perf_counter()
        if now >= self._due:
            self._due = now + INTERVAL_S
            self.sample()

    def scale(self, at: float) -> float:
        """Reference seconds per wall second around ``at``."""
        times = [t for t, _ in self.samples]
        i = bisect.bisect_left(times, at)
        near = self.samples[max(0, i - NEIGHBOURS // 2): i + NEIGHBOURS // 2]
        return REFERENCE_S / statistics.median(k for _, k in near)

    def ref(self, start: float, seconds: float) -> float:
        """An interval of ``seconds`` wall seconds begun at ``start``, in reference seconds."""
        return seconds * self.scale(start + seconds / 2)
