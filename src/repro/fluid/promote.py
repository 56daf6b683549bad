"""Seeded promotion/demotion between fluid and packet representation.

The hybrid core's contract (ISSUE 10): the benign mass stays fluid
until evidence says a slice deserves per-packet scrutiny, then a
*bounded* number of that slice's clients materialize as real
:class:`~repro.workloads.clients.StubClient` objects -- visible to the
DCC monitor, the MOPI-FQ scheduler, and the overload layer exactly like
any hand-built client -- and melt back into the fluid model after a
quiet period.  This mirrors the deployment posture of the layered
defenses in PAPERS.md (Afek et al.'s heavy hitters, Rizvi et al.'s
escalation ladders): cheap aggregate treatment for everyone, expensive
per-flow treatment for the few flagged flows.

Flag sources:

- the bridge's NXDOMAIN Space-Saving sketch, sampled every
  ``decide_interval`` of virtual time (count *deltas* over the
  interval, so a slice is judged by its current rate, not its history);
- :meth:`PromotionController.flag` -- an external path the experiments
  layer can drive from DCC monitor verdicts or any other detector
  (fluid itself never imports ``dcc``; reprolint R6).

Determinism: decisions happen on the controller's own virtual-time
chain (bound-method callbacks, R4), sketch sampling order is the
sketch's stable ranking, and every materialization derives its seed
through :func:`repro.util.seeds.derive_seed` keyed by the slice and its
promotion epoch -- so run N and run N' of the same scenario promote the
same clients at the same virtual instants with the same PRNG streams.
The event log folds into a SHA-256 the scale experiment includes in its
double-run digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.fluid.bridge import FluidBridge
from repro.fluid.cohort import Cohort, parse_slice_key
from repro.netsim.sim import Simulator
from repro.util.seeds import derive_seed


#: sketch entries examined per decision
TOP_K = 8


@dataclass
class PromotionConfig:
    """Knobs of the promotion/demotion state machine."""

    #: virtual seconds between sketch-sampling decisions
    decide_interval: float = 1.0
    #: flag a slice when its sketch-count delta over the interval
    #: reaches this rate (queries/second)
    threshold_qps: float = 25.0
    #: clients materialized per newly-flagged slice
    promote_per_flag: int = 2
    #: hard cap on concurrently materialized clients (the "bounded"
    #: in bounded promotion -- packet cost stays O(max_promoted))
    max_promoted: int = 64
    #: demote a slice this long after its last flag refresh
    quiet_period: float = 5.0
    #: stop the decision chain at this virtual time (None = run on)
    stop_at: Optional[float] = None


class _Promoted:
    __slots__ = ("handle", "cohort", "slice_idx", "count", "promoted_at")

    def __init__(self, handle: object, cohort: Cohort, slice_idx: int, count: int, promoted_at: float) -> None:
        self.handle = handle
        self.cohort = cohort
        self.slice_idx = slice_idx
        self.count = count
        self.promoted_at = promoted_at


class PromotionController:
    """Samples heavy-hitter evidence and moves clients across the line.

    The owner supplies the two factory callbacks:

    - ``materialize(cohort, slice_idx, count, sub_seed, now)`` builds
      and starts ``count`` packet-level clients, returning an opaque
      handle (None aborts the promotion and the clients stay fluid);
    - ``dematerialize(handle, now)`` retires them.

    Both run at decision time on the virtual clock; everything they
    create must draw randomness from streams derived off ``sub_seed``.
    """

    def __init__(
        self,
        sim: Simulator,
        bridge: FluidBridge,
        config: Optional[PromotionConfig] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.bridge = bridge
        self.config = config or PromotionConfig()
        self.seed = seed
        self.materialize: Optional[Callable] = None
        self.dematerialize: Optional[Callable] = None
        self._live: Dict[str, _Promoted] = {}
        self._flagged_at: Dict[str, float] = {}
        self._sampled: Dict[str, float] = {}  # key -> cumulative count at last decision
        self._epoch: Dict[str, int] = {}  # key -> promotions so far (seed path)
        self.promoted_now = 0
        self.promotions = 0
        self.demotions = 0
        #: (virtual time, action, key, count) decision log
        self.events: List[tuple] = []
        self._started = False

    # ------------------------------------------------------------------
    # decision chain
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.config.decide_interval, self._on_decide)

    def _on_decide(self) -> None:
        now = self.sim.now
        self._sample_sketch(now)
        self._demote_quiet(now)
        cfg = self.config
        if cfg.stop_at is None or now + cfg.decide_interval <= cfg.stop_at + 1e-9:
            self.sim.schedule(cfg.decide_interval, self._on_decide)

    def _sample_sketch(self, now: float) -> None:
        """Flag slices whose NX rate over the last interval is heavy."""
        cfg = self.config
        for hitter in self.bridge.nx_sketch.top(TOP_K):
            last = self._sampled.get(hitter.key, 0.0)
            self._sampled[hitter.key] = hitter.count
            rate = (hitter.count - last) / cfg.decide_interval
            if rate >= cfg.threshold_qps:
                self.flag(hitter.key, now)

    def _demote_quiet(self, now: float) -> None:
        quiet = self.config.quiet_period
        for key in list(self._live):
            if now - self._flagged_at.get(key, now) > quiet:
                self._demote(key, now)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def flag(self, key: str, now: float) -> bool:
        """Evidence against a slice; promotes it when room allows.

        Also the external entry point: the experiments layer calls this
        with DCC monitor evidence.  Returns True when the slice is
        materialized after the call (fresh or refreshed).
        """
        self._flagged_at[key] = now
        if key in self._live:
            return True  # refresh only; the quiet timer restarts
        if self.materialize is None:
            return False
        parsed = parse_slice_key(key)
        if parsed is None:
            return False
        cohort = self.bridge.cohort(parsed[0])
        if cohort is None or not cohort.spec.promotable:
            return False
        slice_idx = parsed[1]
        room = self.config.max_promoted - self.promoted_now
        count = min(self.config.promote_per_flag, room)
        if count <= 0:
            return False
        took = cohort.promote_clients(slice_idx, count)
        if took <= 0:
            return False
        epoch = self._epoch.get(key, 0)
        self._epoch[key] = epoch + 1
        sub_seed = derive_seed(self.seed, "promote", key, epoch)
        handle = self.materialize(cohort, slice_idx, took, sub_seed, now)
        if handle is None:
            cohort.demote_clients(slice_idx, took)
            return False
        self._live[key] = _Promoted(handle, cohort, slice_idx, took, now)
        self.promoted_now += took
        self.promotions += 1
        self.events.append((round(now, 9), "promote", key, took))
        return True

    def _demote(self, key: str, now: float) -> None:
        record = self._live.pop(key)
        if self.dematerialize is not None:
            self.dematerialize(record.handle, now)
        record.cohort.demote_clients(record.slice_idx, record.count)
        self.promoted_now -= record.count
        self.demotions += 1
        self.events.append((round(now, 9), "demote", key, record.count))

    def demote_all(self, now: float) -> None:
        """End-of-run cleanup (also keeps digests closed under reruns)."""
        for key in list(self._live):
            self._demote(key, now)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def live_keys(self) -> List[str]:
        return list(self._live)

    def live_handles(self) -> List[tuple]:
        """(key, handle) of every currently-materialized slice -- the
        experiments layer walks this to refresh flags from DCC monitor
        verdicts (the second promotion trigger besides the sketch)."""
        return [(key, record.handle) for key, record in self._live.items()]

    def events_digest(self) -> str:
        """SHA-256 over the decision log (part of the hybrid digest)."""
        hasher = hashlib.sha256()
        for time, action, key, count in self.events:
            hasher.update(f"{time:.9f}|{action}|{key}|{count}\n".encode("ascii"))
        return hasher.hexdigest()
