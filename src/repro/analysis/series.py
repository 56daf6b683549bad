"""Time-series and distribution helpers for the evaluation figures."""

from __future__ import annotations

from typing import List, Sequence


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
