"""Deterministic metrics registry: counters, gauges, histograms, series.

Three primitive kinds plus periodic time-series sampling:

- :class:`Counter` -- monotone event tally (``inc``).
- :class:`Gauge` -- last-write-wins instantaneous level (``set``).
- :class:`Histogram` -- value distribution over fixed log-spaced bucket
  bounds, so percentile summaries are comparable across runs without
  any data-dependent bucketing.

The registry samples every counter and gauge on a fixed virtual-time
grid.  Sampling is *driven by* scheduler events rather than *being* one:
the simulator invokes :meth:`MetricsRegistry.on_advance` from its run
loop whenever the clock moves, and the registry snapshots any grid
points the clock just crossed.  Nothing here pushes events onto the
heap, draws randomness, or sends messages, which is what keeps the
selfcheck event-trace digest byte-identical with observability on or
off (the determinism guard test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class Counter:
    """Monotone tally of occurrences (optionally weighted)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Instantaneous level; last write wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


def log_bounds(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of 10; the sequence always starts at
    ``lo`` and ends at the first bound >= ``hi``.  Bounds are computed
    from integer exponents (not cumulative multiplication) so the edges
    are bit-identical regardless of how many buckets precede them.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds: List[float] = []
    exponent = 0
    while True:
        bound = lo * ratio**exponent
        bounds.append(bound)
        if bound >= hi:
            break
        exponent += 1
    return tuple(bounds)


#: default bounds for sim-time durations: 10 us .. 100 s, 4 per decade
DEFAULT_TIME_BOUNDS = log_bounds(1e-5, 100.0)

#: default bounds for message sizes: 16 B .. 64 KiB, 4 per decade
DEFAULT_SIZE_BOUNDS = log_bounds(16.0, 65536.0)


class Histogram:
    """Counts of observations per fixed bucket.

    ``bounds[i]`` is the *inclusive upper* edge of bucket ``i``; one
    overflow bucket catches everything beyond the last bound.  Sum and
    count ride along so mean and total are exact.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "sum")

    def __init__(self, name: str, bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS) -> None:
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.buckets[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def quantile(self, q: float) -> float:
        """Approximate q-quantile: the upper edge of the bucket holding
        the q-th observation (the last finite bound for overflow)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0,1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank and bucket_count:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class Sample:
    """One time-series point: metric value at a virtual-time grid tick."""

    time: float
    name: str
    value: float


class MetricsRegistry:
    """Namespace of metrics plus the grid sampler.

    All accessors are get-or-create so instrumentation sites never need
    registration boilerplate; a name maps to exactly one instrument kind
    (mixing kinds under one name raises).
    """

    def __init__(self, sample_interval: float = 1.0) -> None:
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be > 0, got {sample_interval}")
        self.sample_interval = sample_interval
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.samples: List[Sample] = []
        #: index of the next grid tick to snapshot (tick i = i * interval)
        self._next_tick = 0

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name)
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name)
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(name)
            instrument = Histogram(name, bounds if bounds is not None else DEFAULT_TIME_BOUNDS)
            self._histograms[name] = instrument
        return instrument

    def _claim(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric name {name!r} already registered as another kind")

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def on_advance(self, now: float) -> None:
        """Snapshot every grid tick the clock has crossed.

        Called by the simulator run loop after the clock advances; a
        burst of events at one instant costs one comparison each, and a
        long quiet gap emits all the ticks it spans at once (each tick's
        snapshot repeats the values in force during the gap).
        """
        while self._next_tick * self.sample_interval <= now:
            tick_time = self._next_tick * self.sample_interval
            self._snapshot(tick_time)
            self._next_tick += 1

    def _snapshot(self, tick_time: float) -> None:
        for name, counter in self._counters.items():
            self.samples.append(Sample(tick_time, name, counter.value))
        for name, gauge in self._gauges.items():
            self.samples.append(Sample(tick_time, name, gauge.value))

    # ------------------------------------------------------------------
    # export views
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))
