"""Space-Saving heavy-hitter sketches (Metwally et al., ICDT 2005).

The anomaly monitor and the observability facade both need "who are the
top-k talkers?" over per-client query/NXDOMAIN/byte streams.  Exact
per-client maps are O(clients) memory -- fine in the simulator, fatal at
the production scale the ROADMAP targets, where a resolver fronts
millions of stub addresses.  Space-Saving answers top-k queries with
O(k) counters and a hard error guarantee: after n stream items, every
reported count overestimates the true count by at most n/k, and any item
whose true count exceeds n/k is guaranteed to be monitored.

The implementation keeps a dict of monitored keys plus each counter's
maximum possible overestimation (the ``error`` field).  Eviction picks
the minimum-count counter; ties break on insertion order (dict order),
which keeps runs deterministic -- a requirement every structure in this
repo shares (reprolint R3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class HeavyHitter:
    """One reported top-k entry.

    ``count`` may overestimate the true frequency by at most ``error``;
    the true count lies in ``[count - error, count]``.
    """

    key: str
    count: float
    error: float


class _Counter:
    __slots__ = ("count", "error")

    def __init__(self, count: float, error: float) -> None:
        self.count = count
        self.error = error


class SpaceSaving:
    """Top-k frequency sketch over a weighted item stream.

    ``offer(key, weight)`` folds one observation in; ``top(n)`` reports
    the heaviest keys.  ``k`` bounds memory: at most ``k`` keys are
    monitored at any instant.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"SpaceSaving needs k >= 1, got {k}")
        self.k = k
        self._counters: Dict[str, _Counter] = {}
        #: total stream weight folded in (the n of the n/k bound)
        self.total_weight = 0.0
        self.evictions = 0

    def offer(self, key: str, weight: float = 1.0) -> None:
        """Fold one observation of ``key`` into the sketch."""
        self.total_weight += weight
        counter = self._counters.get(key)
        if counter is not None:
            counter.count += weight
            return
        if len(self._counters) < self.k:
            self._counters[key] = _Counter(weight, 0.0)
            return
        # Evict the minimum counter; the newcomer inherits its count as
        # its maximum possible overestimation.
        victim_key = ""
        victim: Optional[_Counter] = None
        for candidate_key, candidate in self._counters.items():
            if victim is None or candidate.count < victim.count:
                victim_key = candidate_key
                victim = candidate
        assert victim is not None
        del self._counters[victim_key]
        self._counters[key] = _Counter(victim.count + weight, victim.count)
        self.evictions += 1

    def count(self, key: str) -> float:
        """The monitored (over)estimate for ``key``; 0 when unmonitored."""
        counter = self._counters.get(key)
        return counter.count if counter is not None else 0.0

    def error_bound(self) -> float:
        """Worst-case overestimation of any reported count (n/k)."""
        return self.total_weight / self.k

    def top(self, n: int) -> List[HeavyHitter]:
        """The ``n`` heaviest monitored keys, heaviest first.

        Ties break lexicographically on key so output order is stable
        across runs and interpreters.
        """
        ranked = sorted(
            self._counters.items(), key=_rank_key
        )
        return [
            HeavyHitter(key=key, count=counter.count, error=counter.error)
            for key, counter in ranked[:n]
        ]


def _rank_key(item: tuple) -> tuple:
    key, counter = item
    return (-counter.count, key)
