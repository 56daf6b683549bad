"""Per-upstream health tracking: adaptive RTO and circuit breakers.

The paper's premise is that inter-server channels fail *partially and
adversarially* (Sections 2-3): an upstream may silently drop most of a
resolver's queries while staying nominally reachable.  The seed
resolver reacted to that regime with three ad-hoc pieces of state -- an
SRTT EWMA, a consecutive-timeout streak, and a blind hold-down deadline
-- and a fixed 0.8 s query timeout.  This module replaces the trio with
one explicit :class:`UpstreamHealth` state machine per upstream server,
shared by the recursive resolver and the transport engine:

- **RTT estimation** (``mode="adaptive"``): RFC 6298 SRTT/RTTVAR with
  Karn's rule -- samples from retransmitted queries are rejected, since
  the response cannot be matched to a particular transmission.  The
  retransmission timeout ``rto()`` replaces the fixed per-query timeout.
- **Legacy estimation** (``mode="legacy"``): bit-for-bit the seed
  behaviour (0.7/0.3 EWMA, double-on-timeout, fixed hold-down), so the
  paper-faithful "vanilla BIND" baselines are unchanged.
- **Circuit breaker**: CLOSED -> OPEN after a streak of consecutive
  failures; OPEN for a decorrelated-jitter exponential backoff interval
  drawn from the simulator's seeded PRNG; then HALF_OPEN, admitting a
  *single* probe query whose outcome closes or re-opens the breaker.
  (In legacy mode the breaker degrades to the seed's blind hold-down:
  fixed duration, no half-open probe.)

Everything is simulation-pure: time comes in through method arguments,
randomness through the injected ``random.Random``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs import NULL_OBS


#: legacy hold-down duration (seconds)
HOLD_DOWN = 2.0

# RFC 6298 estimator gains (adaptive mode)
#: SRTT gain (RFC 6298 alpha = 1/8)
ALPHA = 0.125
#: RTTVAR gain (RFC 6298 beta = 1/4)
BETA = 0.25
#: RTTVAR multiplier in the RTO formula (RFC 6298 K)
K = 4.0
#: clock granularity G: lower bound on the K*RTTVAR term
GRANULARITY = 0.01


class BreakerState(enum.Enum):
    """Circuit-breaker states for one upstream server."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class HealthConfig:
    """Tunable behaviour of per-upstream health tracking.

    ``mode="legacy"`` reproduces the seed resolver exactly (EWMA SRTT,
    fixed timeout, fixed-duration hold-down with no probe); it is the
    default so existing baselines and the paper-faithful evaluation are
    untouched.  ``mode="adaptive"`` enables the RFC 6298 estimator and
    the full three-state breaker.
    """

    mode: str = "legacy"
    #: fixed per-query timeout (legacy mode) and the initial RTO before
    #: any RTT sample has been taken (adaptive mode, RFC 6298 S2)
    base_timeout: float = 0.8
    #: consecutive failures that trip the breaker (0 disables)
    failure_threshold: int = 5
    # -- RFC 6298 RTO bounds (adaptive mode) ---------------------------
    rto_min: float = 0.1
    rto_max: float = 10.0
    # -- decorrelated-jitter breaker backoff (adaptive mode) -----------
    #: first open interval lower bound (seconds)
    backoff_base: float = 0.5
    #: open-interval cap (seconds)
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in ("legacy", "adaptive"):
            raise ValueError(f"unknown health mode {self.mode!r}")


@dataclass
class HealthStats:
    """Aggregate transition counters across one registry's upstreams.

    A registry can be pointed at any object carrying these attributes
    (the resolver passes its ``ResolverStats``), so the owner's stats
    block is the single source of truth for reports.
    """

    rtt_samples: int = 0
    #: samples rejected under Karn's rule (retransmitted exchanges)
    karn_rejections: int = 0
    #: failure events fed to the tracker (timeouts, channel errors)
    failure_events: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: half-open probes that failed, re-opening the breaker
    probe_failures: int = 0


class UpstreamHealth:
    """Health state for one upstream server address.

    The owner feeds it ``on_success`` / ``on_failure`` events and reads
    back ``timeout()`` (the per-query timer to arm), ``selection_rtt()``
    (the metric server selection minimises), and ``available()`` /
    ``acquire_probe()`` (breaker gating).
    """

    __slots__ = (
        "config",
        "stats",
        "server",
        "transition_probe",
        "srtt",
        "rttvar",
        "_rto",
        "streak",
        "state",
        "open_until",
        "_last_open_interval",
        "_probe_inflight",
    )

    def __init__(
        self,
        config: HealthConfig,
        stats: HealthStats,
        server: str = "",
        transition_probe: Optional[
            Callable[[str, BreakerState, BreakerState, float], None]
        ] = None,
    ) -> None:
        self.config = config
        self.stats = stats
        #: upstream address, for transition-probe attribution
        self.server = server
        #: observation hook fired on every breaker state change with
        #: ``(server, old_state, new_state, now)``; the fuzzer's
        #: state-machine-legality oracle attaches here.  Transitions are
        #: rare (breaker events only), so the None check costs nothing
        #: on the per-query paths.
        self.transition_probe = transition_probe
        #: smoothed RTT; None until the first accepted sample
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self._rto: float = config.base_timeout
        #: consecutive-failure streak
        self.streak: int = 0
        self.state = BreakerState.CLOSED
        #: virtual time at which an OPEN breaker may transition out
        self.open_until: float = 0.0
        self._last_open_interval: float = 0.0
        self._probe_inflight = False

    # ------------------------------------------------------------------
    # event feeds
    # ------------------------------------------------------------------
    def on_success(self, rtt: float, now: float, retransmitted: bool = False) -> None:
        """A query to this server was answered after ``rtt`` seconds.

        ``retransmitted`` marks an exchange in which the query was sent
        more than once: under Karn's rule (adaptive mode) the sample is
        ambiguous and must not feed the estimator, though it still
        proves liveness and resets the failure streak / breaker.
        """
        self.streak = 0
        if self.state is BreakerState.HALF_OPEN:
            # The single probe came back: the server is healthy again.
            self._transition(BreakerState.CLOSED, now)
            self._probe_inflight = False
            self._last_open_interval = 0.0
            self.stats.breaker_closes += 1
        if self.config.mode == "legacy":
            previous = self.srtt if self.srtt is not None else rtt
            self.srtt = 0.7 * previous + 0.3 * rtt
            self.stats.rtt_samples += 1
            return
        if retransmitted:
            self.stats.karn_rejections += 1
            return
        self.stats.rtt_samples += 1
        cfg = self.config
        if self.srtt is None:
            # First sample (RFC 6298 2.2).
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            # Subsequent samples (RFC 6298 2.3): RTTVAR before SRTT.
            self.rttvar = (1.0 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1.0 - ALPHA) * self.srtt + ALPHA * rtt
        rto = self.srtt + max(GRANULARITY, K * self.rttvar)
        self._rto = min(max(rto, cfg.rto_min), cfg.rto_max)

    def on_failure(self, now: float, rng: random.Random) -> bool:
        """A query to this server timed out (or the channel erred).

        Returns True when this failure tripped the breaker CLOSED/HALF_OPEN
        -> OPEN (the caller counts those transitions in its own stats).
        """
        self.stats.failure_events += 1
        if self.config.mode == "legacy":
            previous = self.srtt if self.srtt is not None else self.config.base_timeout
            self.srtt = min(previous * 2 + 0.01, 60.0)
        else:
            # Exponential RTO backoff on loss (RFC 6298 5.5); the
            # estimator itself is only updated by accepted samples.
            self._rto = min(self._rto * 2.0, self.config.rto_max)
        if self.state is BreakerState.HALF_OPEN:
            # The probe died: straight back to OPEN, longer interval.
            self._probe_inflight = False
            self.stats.probe_failures += 1
            self._open(now, rng)
            return True
        threshold = self.config.failure_threshold
        if threshold <= 0:
            return False
        if self.config.mode == "adaptive" and self.state is BreakerState.OPEN:
            # Stragglers timing out while OPEN carry no new information;
            # the backoff interval already encodes the failure run.
            return False
        # (Legacy keeps counting through hold-down: the seed's streak
        # kept accumulating and each re-trip *extended* the hold-down.)
        self.streak += 1
        if self.streak >= threshold:
            self.streak = 0
            self._open(now, rng)
            return True
        return False

    def on_transmission_timeout(self) -> None:
        """One transmission timed out but the exchange lives on (an
        in-task retry follows).  RFC 6298 5.5 backs the RTO off per
        timeout; the failure streak and breaker only move when the
        whole exchange is abandoned (``on_failure``)."""
        if self.config.mode == "adaptive":
            self._rto = min(self._rto * 2.0, self.config.rto_max)

    def _transition(self, new_state: BreakerState, now: float) -> None:
        old_state = self.state
        self.state = new_state
        if self.transition_probe is not None:
            self.transition_probe(self.server, old_state, new_state, now)

    def _open(self, now: float, rng: random.Random) -> None:
        self._transition(BreakerState.OPEN, now)
        if self.config.mode == "legacy":
            interval = HOLD_DOWN
        else:
            # Decorrelated jitter: sleep = min(cap, U(base, 3 * prev)).
            # Spreads reprobe instants so a fleet of resolvers does not
            # re-converge on a recovering server in lockstep.
            base = self.config.backoff_base
            previous = self._last_open_interval or base
            interval = min(self.config.backoff_cap, rng.uniform(base, previous * 3.0))
        self._last_open_interval = interval
        self.open_until = now + interval
        self.stats.breaker_opens += 1

    # ------------------------------------------------------------------
    # gating reads
    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        """Advance OPEN past its deadline (lazily, on read)."""
        if self.state is BreakerState.OPEN and now >= self.open_until:
            if self.config.mode == "legacy":
                # Seed semantics: hold-down lapse fully re-admits the
                # server, no probe stage.
                self._transition(BreakerState.CLOSED, now)
            else:
                self._transition(BreakerState.HALF_OPEN, now)
                self._probe_inflight = False
                self.stats.breaker_half_opens += 1

    def available(self, now: float) -> bool:
        """May this server be selected for a regular query right now?"""
        self._tick(now)
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return not self._probe_inflight
        return False

    def acquire_probe(self, now: float) -> bool:
        """Claim the HALF_OPEN state's single probe slot.

        Callers about to transmit to this server must go through here;
        in HALF_OPEN only the first caller wins until the probe's
        outcome is reported via ``on_success`` / ``on_failure``.
        CLOSED always grants; OPEN never does.  Legacy mode always
        grants: the seed gated server *selection* only, never an
        already-decided transmission.
        """
        if self.config.mode == "legacy":
            return True
        self._tick(now)
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def release_probe(self) -> None:
        """Return an unused probe slot (the claimed transmission was
        never sent, e.g. the per-server fetch quota refused it)."""
        self._probe_inflight = False

    def timeout(self) -> float:
        """The per-query timer to arm for this server."""
        if self.config.mode == "legacy":
            return self.config.base_timeout
        return self._rto

    def selection_rtt(self) -> float:
        """The metric SRTT-based server selection minimises.

        Unknown servers report 0.0 so they look fast and get probed
        early, matching the seed resolver's behaviour.
        """
        return self.srtt if self.srtt is not None else 0.0


class HealthRegistry:
    """Per-upstream :class:`UpstreamHealth` table for one resolver node.

    ``rng`` must be a dedicated seeded stream from the simulator (e.g.
    ``sim.rng(f"resolver.{addr}.health")``) so breaker jitter never
    perturbs other streams' draw sequences.
    """

    def __init__(
        self,
        config: HealthConfig,
        rng_factory: Callable[[], random.Random],
        stats: Optional[HealthStats] = None,
    ) -> None:
        self.config = config
        self._rng_factory = rng_factory
        #: counter sink -- any object with the HealthStats attributes
        #: (the owning node usually passes its own stats block)
        self.stats = stats if stats is not None else HealthStats()
        self._servers: Dict[str, UpstreamHealth] = {}
        #: observability facade + the owning node's track name (set by
        #: the scenario wiring when a run opts in)
        self.obs = NULL_OBS
        self.obs_track = ""
        self._transition_probe: Optional[
            Callable[[str, BreakerState, BreakerState, float], None]
        ] = None

    @property
    def transition_probe(
        self,
    ) -> Optional[Callable[[str, BreakerState, BreakerState, float], None]]:
        """Breaker state-change hook, fanned out to every upstream entry
        (existing and future).  See :attr:`UpstreamHealth.transition_probe`."""
        return self._transition_probe

    @transition_probe.setter
    def transition_probe(
        self,
        probe: Optional[Callable[[str, BreakerState, BreakerState, float], None]],
    ) -> None:
        self._transition_probe = probe
        for entry in self._servers.values():
            entry.transition_probe = probe

    def health(self, server: str) -> UpstreamHealth:
        entry = self._servers.get(server)
        if entry is None:
            entry = UpstreamHealth(
                self.config,
                self.stats,
                server=server,
                transition_probe=self._transition_probe,
            )
            self._servers[server] = entry
        return entry

    # ------------------------------------------------------------------
    # event feeds
    # ------------------------------------------------------------------
    def on_success(self, server: str, rtt: float, now: float, retransmitted: bool = False) -> None:
        entry = self.health(server)
        if self.obs.enabled:
            was_open = entry.state != BreakerState.CLOSED
            entry.on_success(rtt, now, retransmitted=retransmitted)
            if was_open and entry.state == BreakerState.CLOSED:
                self.obs.instant(
                    "breaker.close", self.obs_track, now, upstream=server
                )
            return
        entry.on_success(rtt, now, retransmitted=retransmitted)

    def on_failure(self, server: str, now: float) -> bool:
        """Returns True when this failure opened the server's breaker."""
        opened = self.health(server).on_failure(now, self._rng_factory())
        if opened and self.obs.enabled:
            self.obs.instant("breaker.open", self.obs_track, now, upstream=server)
        return opened

    def on_transmission_timeout(self, server: str) -> None:
        entry = self._servers.get(server)
        if entry is not None:
            entry.on_transmission_timeout()

    # ------------------------------------------------------------------
    # gating reads
    # ------------------------------------------------------------------
    def available(self, server: str, now: float) -> bool:
        entry = self._servers.get(server)
        return True if entry is None else entry.available(now)

    def acquire_probe(self, server: str, now: float) -> bool:
        entry = self._servers.get(server)
        return True if entry is None else entry.acquire_probe(now)

    def release_probe(self, server: str) -> None:
        entry = self._servers.get(server)
        if entry is not None:
            entry.release_probe()

    def timeout_for(self, server: str) -> float:
        entry = self._servers.get(server)
        return self.config.base_timeout if entry is None else entry.timeout()

    def selection_rtt(self, server: str) -> float:
        entry = self._servers.get(server)
        return 0.0 if entry is None else entry.selection_rtt()

    def select(self, candidates: List[str], now: float, rng: random.Random, explore: float) -> Optional[str]:
        """SRTT-based selection among breaker-admissible candidates.

        Filters out servers whose breaker is OPEN (or whose HALF_OPEN
        probe slot is taken), then prefers the lowest smoothed RTT with
        ``explore`` probability of a uniform pick.  Returns None when
        every candidate is gated off.
        """
        admissible = [server for server in candidates if self.available(server, now)]
        if not admissible:
            return None
        if len(admissible) == 1:
            return admissible[0]
        if explore >= 1.0 or rng.random() < explore:
            return rng.choice(admissible)
        return min(admissible, key=self.selection_rtt)

    def any_open(self, now: float) -> bool:
        """Is any tracked upstream's breaker not fully CLOSED?

        The overload layer uses this as its "upstream trouble" signal
        for the serve-stale fast path.  HALF_OPEN counts: the server's
        health is unverified until its probe comes back, and stale
        answers should keep flowing through the probe cycle rather than
        opening a service hole between OPEN and the probe's verdict.
        """
        for entry in self._servers.values():
            entry._tick(now)
            if entry.state is not BreakerState.CLOSED:
                return True
        return False

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def srtt_table(self) -> Dict[str, float]:
        """Known smoothed RTTs, for reports and the state-size census."""
        return {
            server: entry.srtt
            for server, entry in self._servers.items()
            if entry.srtt is not None
        }

    def clear(self) -> None:
        """Crash semantics: learned upstream quality is process memory."""
        self._servers.clear()
