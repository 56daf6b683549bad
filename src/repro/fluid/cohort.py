"""Fluid cohorts: benign client populations as lists of float lanes.

A :class:`Cohort` models ``clients`` identical stub clients as a set of
*slices* -- per-slice lanes of client counts, smoothed RTTs, and
unserved-query backlogs, each a plain ``list[float]`` -- integrated on
the bridge's virtual-time tick instead of simulated per packet.  A
million clients cost a few hundred float lanes per tick, which is what
lets the fig4/fig8-class population scenarios run at paper scale
(ROADMAP item 1).

The model is intentionally the *expected value* of the packet path:

- arrivals are deterministic rates (``clients x rate x dt``), not
  sampled Poisson draws, so a run is a pure function of its inputs and
  the selfcheck-style double-run digest holds bit-for-bit;
- the qname mix enters through a closed-form cache-miss ratio: fresh
  wildcard / NXDOMAIN traffic misses always, while a zipf-weighted name
  pool uses the standard per-name hit estimate ``lambda_i * ttl / (1 +
  lambda_i * ttl)`` (a Che-approximation simplification for TTL-bound
  DNS caches);
- unserved misses age in a backlog that expires at the client request
  timeout, mirroring :class:`repro.workloads.clients.StubClient` giving
  up after ``request_timeout``.

No RNG is used anywhere in the fluid layer (reprolint R1/R7:
randomness must flow from seeded ``random.Random`` streams).  Every
lane operation is one IEEE-754 double operation per slice, and lane
totals go through :func:`lane_sum`, whose fixed addition order makes
the tick digest a function of the inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def lane_sum(values: Sequence[float]) -> float:
    """Sum in the pairwise order of numpy's float64 add-reduce.

    From ``0.0`` (the reduction's identity, which also turns a ``-0.0``
    total into ``0.0``): up to 7 values left to right; up to 128, 8
    interleaved accumulators added as a balanced tree, then the tail;
    above that, halves split at a multiple of 8.  The stored digests
    and ``residual=`` values were recorded in this order; ``sum``
    rounds differently (and compensates, from Python 3.12).
    """
    n = len(values)
    if n > 128:
        half = n // 2
        half -= half % 8
        return lane_sum(values[:half]) + lane_sum(values[half:])
    total, end = 0.0, 0
    if n >= 8:
        acc = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            acc = [a + b for a, b in zip(acc, values[i : i + 8])]
        r0, r1, r2, r3, r4, r5, r6, r7 = acc
        total += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[end:]:
        total += value
    return total


@dataclass
class CohortSpec:
    """One benign population, serializable (rides in FuzzScenario).

    ``pattern`` mirrors the packet-level client patterns: ``WC`` and
    ``NX`` are cache-bypassing (miss ratio 1.0), ``WC_POOL`` draws from
    a zipf-weighted pool of ``pool_size`` repeatable names.  ``zone``
    is the qname suffix promoted packet clients will query;
    ``destination`` is the authoritative address whose channel absorbs
    this cohort's cache misses ("" = let the harness resolve it from
    the zone).
    """

    name: str
    clients: int
    rate: float  # per-client requests/second
    zone: str
    destination: str = ""
    start: float = 0.0
    stop: float = 60.0
    pattern: str = "WC"
    pool_size: int = 512
    zipf_s: float = 1.0
    ttl: float = 30.0
    slices: int = 16
    #: client-observed latency of an uncongested resolution (seconds)
    base_rtt: float = 0.004
    #: client request timeout: backlog older than this expires
    timeout: float = 2.0
    #: may the promotion controller materialize this cohort's slices?
    promotable: bool = False

    def __post_init__(self) -> None:
        if self.clients < 0:
            raise ValueError(f"clients must be >= 0, got {self.clients}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.slices <= 0:
            raise ValueError(f"slices must be positive, got {self.slices}")
        if self.pattern not in ("WC", "NX", "WC_POOL"):
            raise ValueError(f"unknown fluid pattern {self.pattern!r}")

    @property
    def aggregate_rate(self) -> float:
        return self.clients * self.rate


def pool_miss_ratio(total_rate: float, pool_size: int, zipf_s: float, ttl: float) -> float:
    """Expected cache-miss ratio of zipf traffic over a TTL-bound cache.

    Name ``i`` (1-based) carries probability ``i^-s / H`` of each
    arrival; with per-name arrival rate ``lambda_i`` a TTL cache holds
    it a fraction ``lambda_i*ttl / (1 + lambda_i*ttl)`` of the time, so
    the miss ratio is the weighted sum of ``1 / (1 + lambda_i*ttl)``.
    """
    if pool_size <= 0 or ttl <= 0 or total_rate <= 0:
        return 1.0
    exponent = -float(zipf_s)
    weights = [float(rank) ** exponent for rank in range(1, pool_size + 1)]
    norm = lane_sum(weights)
    weights = [w / norm for w in weights]
    return lane_sum([w / (1.0 + total_rate * w * ttl) for w in weights])


class Cohort:
    """Runtime state of one fluid cohort, one float lane per slice.

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

    def __init__(self, spec: CohortSpec) -> None:
        self.spec = spec
        n = spec.slices
        base, rem = divmod(spec.clients, n)
        #: clients currently modeled as fluid (promotion subtracts)
        self.active: List[float] = [float(base) + 1.0] * rem + [float(base)] * (n - rem)
        #: clients currently materialized as packet-level objects
        self.promoted: List[float] = [0.0] * n
        self.srtt: List[float] = [float(spec.base_rtt)] * n
        #: unserved cache-miss queries waiting on the channel
        self.backlog: List[float] = [0.0] * n
        # lifetime accumulators (queries)
        self.offered: List[float] = [0.0] * n
        self.hits: List[float] = [0.0] * n
        self.upstream: List[float] = [0.0] * n
        self.timeouts: List[float] = [0.0] * n
        if spec.pattern == "WC_POOL":
            self.miss_ratio = pool_miss_ratio(
                spec.aggregate_rate, spec.pool_size, spec.zipf_s, spec.ttl
            )
        else:
            self.miss_ratio = 1.0
        self._demand: List[float] = [0.0] * n
        self._granted: List[float] = [0.0] * n

    # ------------------------------------------------------------------
    # tick integration (driven by FluidBridge)
    # ------------------------------------------------------------------
    def begin_tick(self, t0: float, t1: float) -> float:
        """Accrue arrivals over [t0, t1); returns total upstream demand."""
        overlap = min(self.spec.stop, t1) - max(self.spec.start, t0)
        if overlap > 0.0:
            per_client = self.spec.rate * overlap
            keep = 1.0 - self.miss_ratio
            offered_new = [a * per_client for a in self.active]
            hits = [o * keep for o in offered_new]
            self.offered = [x + o for x, o in zip(self.offered, offered_new)]
            self.hits = [x + h for x, h in zip(self.hits, hits)]
            self._demand = [b + (o - h) for b, o, h in zip(self.backlog, offered_new, hits)]
        else:
            self._demand = list(self.backlog)
        return lane_sum(self._demand)

    def settle(self, share: float, queue_delay: float) -> None:
        """Apply the channel's grant ``share`` in [0, 1] for this tick."""
        granted = [d * share for d in self._demand]
        self.upstream = [x + g for x, g in zip(self.upstream, granted)]
        remainder = [d - g for d, g in zip(self._demand, granted)]
        # Backlog deeper than `timeout` seconds of miss demand has, by
        # Little's law, been waiting longer than a StubClient would:
        # those queries expire as client timeouts.
        depth = self.spec.rate * self.miss_ratio * self.spec.timeout
        cap = [a * depth for a in self.active]
        kept = [r if r <= c else c for r, c in zip(remainder, cap)]
        self.timeouts = [x + (r - k) for x, r, k in zip(self.timeouts, remainder, kept)]
        self.backlog = kept
        latency = self.spec.base_rtt + queue_delay
        self.srtt = [s + self.SRTT_GAIN * (latency - s) for s in self.srtt]
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
        return lane_sum(self.hits) + lane_sum(self.upstream)

    def granted_last_tick(self, slice_idx: int) -> float:
        return self._granted[slice_idx]

    def ledger(self) -> Dict[str, float]:
        """Conservation snapshot: offered == hits+upstream+timeouts+backlog."""
        return {
            "offered": lane_sum(self.offered),
            "hits": lane_sum(self.hits),
            "upstream": lane_sum(self.upstream),
            "timeouts": lane_sum(self.timeouts),
            "backlog": lane_sum(self.backlog),
        }

    def digest_line(self) -> str:
        """Stable per-cohort state line for the tick digest."""
        led = self.ledger()
        return (
            f"{self.spec.name}|{led['offered']:.6f}|{led['hits']:.6f}"
            f"|{led['upstream']:.6f}|{led['timeouts']:.6f}"
            f"|{led['backlog']:.6f}|{lane_sum(self.srtt) / len(self.srtt):.9f}"
            f"|{lane_sum(self.active):.1f}|{lane_sum(self.promoted):.1f}"
        )


def build_cohorts(specs: List[CohortSpec]) -> List["Cohort"]:
    """Runtime cohorts, one per spec; names must be unique."""
    cohorts = []
    names = set()
    for spec in specs:
        if spec.name in names:
            raise ValueError(f"duplicate cohort name {spec.name!r}")
        names.add(spec.name)
        cohorts.append(Cohort(spec))
    return cohorts


def slice_key(cohort_name: str, slice_idx: int) -> str:
    """Sketch/promotion key of one cohort slice."""
    return f"{cohort_name}/{slice_idx}"


def parse_slice_key(key: str) -> Optional[tuple]:
    """Inverse of :func:`slice_key`; None for foreign (packet) keys."""
    name, sep, idx = key.rpartition("/")
    if not sep or not idx.isdigit():
        return None
    return name, int(idx)
