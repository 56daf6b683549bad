"""Sliding-window counters.

DCC's anomaly monitor (paper Section 3.2.2) tracks, per client, "a
collection of anomaly metrics, e.g., the amount, the rate, or the
percentage of anomalous requests ... over a sliding window (e.g., 2
seconds)".  ``dcc/monitor.py`` packs that scheme into one slot table for
all clients; these classes are the one-counter-per-object form it
replaced, kept as the monitor's reference in
``tests/test_monitor_packed.py``.  The windows are *tumbling at sub-window
granularity*:
the window is divided into a small number of buckets that age out as
virtual time advances, which bounds memory regardless of event rate and
matches how production rate estimators (and the paper's per-window alarm
evaluation) behave.

All timestamps are seconds of simulator virtual time; nothing here reads
the wall clock.
"""

from __future__ import annotations

from typing import List


class SlidingWindowCounter:
    """Count of events within the trailing ``window`` seconds.

    Events are aggregated into ``buckets`` sub-windows; the count is exact
    at bucket granularity and conservative in between, which is what an
    alarm threshold check needs.
    """

    __slots__ = ("window", "_buckets", "_counts", "_epoch")

    def __init__(self, window: float, buckets: int = 8) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if buckets <= 0:
            raise ValueError(f"buckets must be positive, got {buckets}")
        self.window = float(window)
        self._buckets = buckets
        self._counts: List[float] = [0.0] * buckets
        self._epoch = 0  # absolute index of the newest bucket

    def _bucket_index(self, now: float) -> int:
        return int(now / (self.window / self._buckets))

    def _advance(self, now: float) -> None:
        idx = self._bucket_index(now)
        if idx <= self._epoch:
            return
        steps = idx - self._epoch
        if steps >= self._buckets:
            for i in range(self._buckets):
                self._counts[i] = 0.0
        else:
            for i in range(self._epoch + 1, idx + 1):
                self._counts[i % self._buckets] = 0.0
        self._epoch = idx

    def add(self, now: float, amount: float = 1.0) -> None:
        """Record ``amount`` events at virtual time ``now``."""
        self._advance(now)
        self._counts[self._epoch % self._buckets] += amount

    def total(self, now: float) -> float:
        """Events observed in the trailing window ending at ``now``."""
        self._advance(now)
        return sum(self._counts)

    def rate(self, now: float) -> float:
        """Average event rate (events/second) over the window."""
        return self.total(now) / self.window

    def reset(self) -> None:
        for i in range(self._buckets):
            self._counts[i] = 0.0


class SlidingWindowRatio:
    """Ratio of "hit" events to all events within the trailing window.

    Used for metrics such as the NXDOMAIN-response ratio that convicts
    pseudo-random-subdomain attackers (paper Section 5.1 uses a ratio
    threshold of 0.2).
    """

    __slots__ = ("_hits", "_all")

    def __init__(self, window: float, buckets: int = 8) -> None:
        self._hits = SlidingWindowCounter(window, buckets)
        self._all = SlidingWindowCounter(window, buckets)

    def record(self, now: float, hit: bool) -> None:
        self._all.add(now)
        if hit:
            self._hits.add(now)

    def ratio(self, now: float) -> float:
        """Hit ratio over the window; 0.0 when no events were seen."""
        denom = self._all.total(now)
        if denom <= 0:
            return 0.0
        return self._hits.total(now) / denom

    def observations(self, now: float) -> float:
        return self._all.total(now)

    def reset(self) -> None:
        self._hits.reset()
        self._all.reset()
