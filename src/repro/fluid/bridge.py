"""FluidBridge: couples cohort rate models to the packet simulator.

The bridge integrates every registered :class:`~repro.fluid.cohort.
Cohort` on a fixed virtual-time tick and converts the resulting demand
into *occupancy pressure* on the very objects the packet path uses:

- each cohort's cache misses drain the per-destination
  :class:`~repro.util.tokenbucket.TokenBucket` registered for its
  channel.  Handing the bridge the DCC shim's own scheduler bucket
  (``shim.scheduler.channel_bucket(dest)``) makes the coupling real in
  both directions -- fluid load consumes channel capacity ahead of
  packet-level flows, and packet traffic already in the bucket leaves
  less grant for the fluid mass;
- the aggregate unserved backlog is pushed to registered *pressure
  sinks* each tick, which the experiment layer wires to
  ``OverloadController.external_pressure`` so resolver watermarks react
  to background load that never materializes as pending-table entries;
- per-slice served volume feeds two Space-Saving sketches (queries and
  NXDOMAIN answers), the heavy-hitter evidence the promotion
  controller samples.

Layering (reprolint R6): ``fluid`` sits *above* ``netsim`` -- the
bridge imports the simulator, never the reverse -- and knows nothing of
``dcc`` or ``server``; those couplings happen through duck-typed bucket
and sink objects handed in by the experiments layer.

Determinism: the tick callback is a bound method on a schedule chain
(R4-safe), cohorts and channels are walked in registration order, and
every tick folds a quantized state line into a running SHA-256; two
same-seed runs must produce byte-identical digests (asserted by the CI
``scale-smoke`` job).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

from repro.fluid.cohort import Cohort, lane_sum, slice_key
from repro.netsim.sim import Simulator
from repro.obs.sketch import SpaceSaving


class FluidChannel:
    """One destination channel: a shared token bucket plus tick stats."""

    __slots__ = ("destination", "bucket", "demand", "granted", "queue_delay")

    def __init__(self, destination: str, bucket) -> None:
        self.destination = destination
        #: anything with ``tokens(now)``/``try_consume(now, amount)``/
        #: ``rate`` -- a util.TokenBucket, typically the DCC scheduler's
        self.bucket = bucket
        self.demand = 0.0
        self.granted = 0.0
        self.queue_delay = 0.0

    def drain(self, now: float, demand: float) -> float:
        """Consume up to ``demand`` tokens; returns the grant."""
        self.demand = demand
        grant = 0.0
        if demand > 0.0:
            grant = min(demand, max(0.0, self.bucket.tokens(now)))
            if grant > 0.0 and not self.bucket.try_consume(now, grant):
                grant = 0.0  # lost a race with refill rounding; skip
        self.granted = grant
        self.queue_delay = (demand - grant) / self.bucket.rate if demand > grant else 0.0
        return grant


class FluidBridge:
    """Integrates fluid cohorts each tick and records a run digest."""

    def __init__(
        self,
        sim: Simulator,
        tick: float = 0.1,
        stop_at: Optional[float] = None,
        sketch_k: int = 64,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self.sim = sim
        self.tick = tick
        #: stop self-rescheduling at this virtual time (None = run with
        #: the simulator's own horizon); keeps fuzz runs drainable
        self.stop_at = stop_at
        self.cohorts: List[Cohort] = []
        self._by_name: Dict[str, Cohort] = {}
        self.channels: Dict[str, FluidChannel] = {}
        #: per-slice served-query volume (promotion evidence)
        self.query_sketch = SpaceSaving(sketch_k)
        #: per-slice NXDOMAIN answer volume (the paper's suspicion signal)
        self.nx_sketch = SpaceSaving(sketch_k)
        #: called every tick with (now, total_backlog) -- wire resolver
        #: overload coupling here (must be bound methods, R4 hygiene)
        self.pressure_sinks: List[Callable[[float, float], None]] = []
        self.ticks = 0
        self._last = 0.0
        self._started = False
        self._hasher = hashlib.sha256()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_channel(self, destination: str, bucket) -> FluidChannel:
        if destination in self.channels:
            raise ValueError(f"channel {destination!r} already registered")
        channel = FluidChannel(destination, bucket)
        self.channels[destination] = channel
        return channel

    def add_cohort(self, cohort: Cohort) -> None:
        dest = cohort.spec.destination
        if dest not in self.channels:
            raise ValueError(
                f"cohort {cohort.spec.name!r} targets unregistered channel {dest!r}; "
                "add_channel() it first (share the DCC scheduler bucket when one exists)"
            )
        if cohort.spec.name in self._by_name:
            raise ValueError(f"duplicate cohort name {cohort.spec.name!r}")
        self.cohorts.append(cohort)
        self._by_name[cohort.spec.name] = cohort

    def cohort(self, name: str) -> Optional[Cohort]:
        return self._by_name.get(name)

    # ------------------------------------------------------------------
    # tick loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the tick chain; call once after registration."""
        if self._started:
            return
        self._started = True
        self._last = self.sim.now
        self.sim.schedule(self.tick, self._on_tick)

    def _on_tick(self) -> None:
        now = self.sim.now
        self.advance(now)
        if self.stop_at is None or now + self.tick <= self.stop_at + 1e-9:
            self.sim.schedule(self.tick, self._on_tick)

    def advance(self, now: float) -> None:
        """Integrate all cohorts over [last, now]; callable standalone
        (the bench path drives it without a simulator loop)."""
        t0, t1 = self._last, now
        if t1 <= t0:
            return
        self._last = t1
        demand: Dict[str, float] = {}
        for cohort in self.cohorts:
            total = cohort.begin_tick(t0, t1)
            dest = cohort.spec.destination
            demand[dest] = demand.get(dest, 0.0) + total
        for dest, channel in self.channels.items():
            channel.drain(t1, demand.get(dest, 0.0))
        backlog_total = 0.0
        for cohort in self.cohorts:
            channel = self.channels[cohort.spec.destination]
            share = (
                channel.granted / channel.demand if channel.demand > 0.0 else 1.0
            )
            cohort.settle(share, channel.queue_delay)
            backlog_total += lane_sum(cohort.backlog)
            self._offer_slices(cohort)
        for sink in self.pressure_sinks:
            sink(t1, backlog_total)
        self._fold_digest(t1)
        self.ticks += 1

    def _offer_slices(self, cohort: Cohort) -> None:
        """Feed per-slice served volume into the heavy-hitter sketches."""
        if not cohort.spec.promotable:
            return
        is_nx = cohort.spec.pattern == "NX"
        for idx in range(cohort.spec.slices):
            weight = cohort.granted_last_tick(idx)
            if weight <= 0.0:
                continue
            key = slice_key(cohort.spec.name, idx)
            self.query_sketch.offer(key, weight)
            if is_nx:
                self.nx_sketch.offer(key, weight)

    # ------------------------------------------------------------------
    # determinism + reporting
    # ------------------------------------------------------------------
    def _fold_digest(self, now: float) -> None:
        lines = [f"t={now:.9f}"]
        for cohort in self.cohorts:
            lines.append(cohort.digest_line())
        for dest, channel in self.channels.items():
            lines.append(f"{dest}|{channel.demand:.6f}|{channel.granted:.6f}")
        self._hasher.update("\n".join(lines).encode("ascii"))
        self._hasher.update(b"\x00")

    def digest(self) -> str:
        """SHA-256 over every tick's quantized state so far."""
        return self._hasher.hexdigest()

    def ledger(self) -> Dict[str, float]:
        """Aggregate conservation ledger across all cohorts.

        ``offered == hits + upstream + timeouts + backlog`` up to float
        slack; the fuzzer's conservation oracle asserts the residual.
        """
        totals = {"offered": 0.0, "hits": 0.0, "upstream": 0.0, "timeouts": 0.0, "backlog": 0.0}
        for cohort in self.cohorts:
            for key, value in cohort.ledger().items():
                totals[key] += value
        totals["residual"] = totals["offered"] - (
            totals["hits"] + totals["upstream"] + totals["timeouts"] + totals["backlog"]
        )
        return totals

    def served_total(self) -> float:
        return sum(cohort.served_total() for cohort in self.cohorts)

    def client_count(self) -> int:
        return sum(cohort.spec.clients for cohort in self.cohorts)
