"""Time-series and distribution helpers for the evaluation figures."""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Tuple


class TimeSeries:
    """Events bucketed into fixed intervals (per-second effective QPS,
    per-second query counts at a server, ...)."""

    def __init__(self, duration: float, bucket: float = 1.0) -> None:
        if duration <= 0 or bucket <= 0:
            raise ValueError("duration and bucket must be positive")
        self.duration = duration
        self.bucket = bucket
        self._counts = [0.0] * (int(duration / bucket) + 1)

    def add(self, time: float, amount: float = 1.0) -> None:
        index = int(time / self.bucket)
        if 0 <= index < len(self._counts):
            self._counts[index] += amount

    def rates(self) -> List[float]:
        """Per-bucket rate (events / second)."""
        return [count / self.bucket for count in self._counts]

    def at(self, time: float) -> float:
        index = int(time / self.bucket)
        if 0 <= index < len(self._counts):
            return self._counts[index] / self.bucket
        return 0.0

    def mean_rate(self, since: float = 0.0, until: float = None) -> float:
        until = self.duration if until is None else until
        lo = int(since / self.bucket)
        hi = min(int(until / self.bucket), len(self._counts))
        if hi <= lo:
            return 0.0
        return sum(self._counts[lo:hi]) / ((hi - lo) * self.bucket)

    def __len__(self) -> int:
        return len(self._counts)


def cdf_points(samples: Iterable[float], points: int = 100) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) pairs, downsampled
    to at most ``points`` entries (Figure 11 uses this)."""
    data = sorted(samples)
    n = len(data)
    if n == 0:
        return []
    if n <= points:
        return [(value, (i + 1) / n) for i, value in enumerate(data)]
    step = n / points
    result = []
    for k in range(points):
        index = min(n - 1, int((k + 1) * step) - 1)
        result.append((data[index], (index + 1) / n))
    return result


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be within [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    position = (q / 100) * (len(data) - 1)
    lower = int(position)
    upper = min(lower + 1, len(data) - 1)
    weight = position - lower
    return data[lower] * (1 - weight) + data[upper] * weight


def fraction_below(samples: Sequence[float], threshold: float) -> float:
    """CDF evaluated at ``threshold``."""
    data = sorted(samples)
    if not data:
        return 0.0
    return bisect.bisect_right(data, threshold) / len(data)


def bucket_counts(values: Iterable[float], edges: Sequence[float]) -> List[int]:
    """Histogram counts for ``edges`` boundaries (Figure 2's QPS ranges).

    ``edges = [e0, e1, ..., ek]`` produces k buckets [e0,e1), ... and
    values outside the range are ignored.
    """
    counts = [0] * (len(edges) - 1)
    for value in values:
        for i in range(len(edges) - 1):
            if edges[i] <= value < edges[i + 1]:
                counts[i] += 1
                break
    return counts
