"""A reference clock for a runner whose speed will not hold still.

On the 2-core VMs this benchmark runs on, the same pure-Python work takes
between 1x and 1.7x as long from one second to the next (host contention;
measured in ``perf/README.md``), in episodes of seconds -- too long for a
median over slices to remove, and a 10 s run sees only a few of them.  Raw
wall time therefore spreads by 15-30 % between identical runs.

What does hold still is the *ratio* between a slice of the workload and a
fixed reference kernel run right before and after it: both slow down
together.  So the timed phase of every workload is cut into short slices, a
``probe()`` runs between slices, and a slice's duration is converted to
**reference seconds**: ``seconds * REFERENCE_S / probe seconds``.  One
reference second is one second on this runner class when it is quiet.  The
end-to-end time metrics are reported in reference seconds; raw wall time is
printed next to them.
"""

from __future__ import annotations

import gc
import heapq
import time

#: what one ``probe()`` takes on the quiet runner, by definition.  A scale
#: constant: changing it rescales every time metric, so it never changes.
REFERENCE_S = 0.002


class _Item:
    __slots__ = ("count", "label")

    def __init__(self, count: int, label: str) -> None:
        self.count = count
        self.label = label

    def bump(self) -> int:
        self.count += 1
        return self.count


def _kernel(n: int = 1500) -> int:
    """Object creation, string keys, dict and heap traffic, method calls:
    the mix the code under test is made of, so both react alike to a busy
    host."""
    table = {}
    heap: list = []
    total = 0
    for i in range(n):
        item = _Item(i, str(i))
        table[item.label] = item
        heapq.heappush(heap, (i * 7919 % 1000, i))
        total += item.bump()
        if i & 1:
            total += table[str(i >> 1)].count
            heapq.heappop(heap)
    return total


def probe() -> float:
    """Seconds one pass of the reference kernel takes right now.

    The collector is held off meanwhile: a full collection that the
    workload's heap has made due would otherwise land in the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
