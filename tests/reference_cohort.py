"""The numpy fluid cohort, as it was before its lanes became float lists.

``Cohort`` and ``pool_miss_ratio`` are the numpy-vectorized versions
verbatim, except that the ``require_numpy()`` guard calls are gone: this
module imports numpy unconditionally, and only
``tests/test_cohort_differential.py`` imports it (after
``pytest.importorskip("numpy")``).  ``repro.fluid.cohort`` must
reproduce every lane of these, bit for bit.
"""

from __future__ import annotations

from typing import Dict

import numpy as _np

from repro.fluid.cohort import CohortSpec


def pool_miss_ratio(total_rate: float, pool_size: int, zipf_s: float, ttl: float) -> float:
    """Expected cache-miss ratio of zipf traffic over a TTL-bound cache.

    Name ``i`` (1-based) carries probability ``i^-s / H`` of each
    arrival; with per-name arrival rate ``lambda_i`` a TTL cache holds
    it a fraction ``lambda_i*ttl / (1 + lambda_i*ttl)`` of the time, so
    the miss ratio is the weighted sum of ``1 / (1 + lambda_i*ttl)``.
    """
    if pool_size <= 0 or ttl <= 0 or total_rate <= 0:
        return 1.0
    ranks = _np.arange(1, pool_size + 1, dtype=_np.float64)
    weights = ranks ** (-float(zipf_s))
    weights /= weights.sum()
    lam = total_rate * weights
    return float((weights / (1.0 + lam * ttl)).sum())


class Cohort:
    """Runtime state of one fluid cohort, vectorized over slices.

    The bridge drives the two-phase tick: :meth:`begin_tick` turns the
    elapsed window into per-slice upstream demand (new cache misses plus
    carried backlog) and :meth:`settle` applies the channel's grant
    share, expiring what outlived the client timeout.  Promotion moves
    whole clients between the fluid count and the materialized count;
    the backlog stays with the fluid remainder so the conservation
    ledger (offered == hits + upstream + timeouts + backlog) holds at
    every tick boundary.
    """

    __slots__ = (
        "spec",
        "seed",
        "active",
        "promoted",
        "srtt",
        "backlog",
        "offered",
        "hits",
        "upstream",
        "timeouts",
        "miss_ratio",
        "_demand",
        "_granted",
    )

    #: per-tick SRTT smoothing gain (RFC 6298's alpha)
    SRTT_GAIN = 0.125

    def __init__(self, spec: CohortSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        n = spec.slices
        base, rem = divmod(spec.clients, n)
        counts = _np.full(n, float(base))
        counts[:rem] += 1.0
        #: clients currently modeled as fluid (promotion subtracts)
        self.active = counts
        #: clients currently materialized as packet-level objects
        self.promoted = _np.zeros(n)
        self.srtt = _np.full(n, spec.base_rtt)
        #: unserved cache-miss queries waiting on the channel
        self.backlog = _np.zeros(n)
        # lifetime accumulators (queries)
        self.offered = _np.zeros(n)
        self.hits = _np.zeros(n)
        self.upstream = _np.zeros(n)
        self.timeouts = _np.zeros(n)
        if spec.pattern == "WC_POOL":
            self.miss_ratio = pool_miss_ratio(
                spec.aggregate_rate, spec.pool_size, spec.zipf_s, spec.ttl
            )
        else:
            self.miss_ratio = 1.0
        self._demand = _np.zeros(n)
        self._granted = _np.zeros(n)

    # ------------------------------------------------------------------
    # tick integration (driven by FluidBridge)
    # ------------------------------------------------------------------
    def begin_tick(self, t0: float, t1: float) -> float:
        """Accrue arrivals over [t0, t1); returns total upstream demand."""
        overlap = min(self.spec.stop, t1) - max(self.spec.start, t0)
        if overlap > 0.0:
            offered_new = self.active * (self.spec.rate * overlap)
            hits = offered_new * (1.0 - self.miss_ratio)
            self.offered += offered_new
            self.hits += hits
            self._demand = self.backlog + (offered_new - hits)
        else:
            self._demand = self.backlog.copy()
        return float(self._demand.sum())

    def settle(self, share: float, queue_delay: float) -> None:
        """Apply the channel's grant ``share`` in [0, 1] for this tick."""
        granted = self._demand * share
        self.upstream += granted
        remainder = self._demand - granted
        # Backlog deeper than `timeout` seconds of miss demand has, by
        # Little's law, been waiting longer than a StubClient would:
        # those queries expire as client timeouts.
        cap = self.active * (self.spec.rate * self.miss_ratio * self.spec.timeout)
        kept = _np.minimum(remainder, cap)
        self.timeouts += remainder - kept
        self.backlog = kept
        latency = self.spec.base_rtt + queue_delay
        self.srtt += self.SRTT_GAIN * (latency - self.srtt)
        self._granted = granted

    # ------------------------------------------------------------------
    # promotion bookkeeping
    # ------------------------------------------------------------------
    def promote_clients(self, slice_idx: int, count: int) -> int:
        """Move up to ``count`` clients of a slice to packet level."""
        available = int(self.active[slice_idx])
        took = min(count, available)
        if took > 0:
            self.active[slice_idx] -= took
            self.promoted[slice_idx] += took
        return took

    def demote_clients(self, slice_idx: int, count: int) -> int:
        """Return ``count`` materialized clients to the fluid model."""
        back = min(count, int(self.promoted[slice_idx]))
        if back > 0:
            self.promoted[slice_idx] -= back
            self.active[slice_idx] += back
        return back

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def served_total(self) -> float:
        """Completed resolutions so far (cache hits + upstream grants)."""
        return float(self.hits.sum() + self.upstream.sum())

    def granted_last_tick(self, slice_idx: int) -> float:
        return float(self._granted[slice_idx])

    def ledger(self) -> Dict[str, float]:
        """Conservation snapshot: offered == hits+upstream+timeouts+backlog."""
        return {
            "offered": float(self.offered.sum()),
            "hits": float(self.hits.sum()),
            "upstream": float(self.upstream.sum()),
            "timeouts": float(self.timeouts.sum()),
            "backlog": float(self.backlog.sum()),
        }

    def digest_line(self) -> str:
        """Stable per-cohort state line for the tick digest."""
        led = self.ledger()
        return (
            f"{self.spec.name}|{led['offered']:.6f}|{led['hits']:.6f}"
            f"|{led['upstream']:.6f}|{led['timeouts']:.6f}"
            f"|{led['backlog']:.6f}|{float(self.srtt.mean()):.9f}"
            f"|{float(self.active.sum()):.1f}|{float(self.promoted.sum()):.1f}"
        )
