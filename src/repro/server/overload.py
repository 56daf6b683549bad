"""Resolver front-end admission control: watermarks + priority shedding.

Nothing in the seed resolver bounds its own pending-request table: a
flood of cache-missing requests grows it without limit while every
entry fans out upstream queries, so the resolver amplifies the attack
against itself.  Layered-defense work on root DNS DDoS argues graceful
degradation under overload must be an explicit mechanism; this module
is that mechanism for the client-facing side:

- **watermark hysteresis** -- shedding engages when the pending-request
  count crosses ``high_watermark`` and releases only once it falls back
  to ``low_watermark``, so the controller does not flap at the boundary;
- **priority shedding** -- while shedding, clients the DCC monitor holds
  in suspicion or conviction are shed *first* (the resolver asks its
  shim through ``suspicion_probe``); benign clients are only refused
  while the table still sits at or above the high watermark;
- **shed policy** -- an early SERVFAIL tells well-behaved stubs to back
  off or fail over immediately (and costs one small response), while a
  silent drop spends nothing on attackers who ignore answers anyway;
- **deadline budget** -- each admitted request gets ``request_deadline``
  seconds of total resolution time, threaded into the resolution task
  so upstream retries never outlive the client's own patience.

The serve-stale fast path (RFC 8767 applied *pre-resolution*: answer a
cache-missing request from an expired entry when upstreams are broken
or the front end is saturated) is decided by the resolver itself using
:meth:`OverloadController.pressure` plus its health registry's
breaker state; the controller only supplies the saturation half of
that signal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ShedPolicy(enum.Enum):
    """What a shed client observes."""

    #: answer SERVFAIL immediately (RFC 2308 failure, cheap and honest)
    SERVFAIL = "servfail"
    #: drop silently (spend nothing; the client's own timer discovers it)
    DROP = "drop"


@dataclass
class OverloadConfig:
    """Admission-control knobs for one resolver front end."""

    #: pending-request count at which shedding engages
    high_watermark: int = 512
    #: pending-request count at which shedding releases (hysteresis)
    low_watermark: int = 256
    shed_policy: ShedPolicy = ShedPolicy.SERVFAIL
    #: serve expired cache entries pre-resolution while the front end is
    #: saturated or an upstream breaker is open (needs a cache built
    #: with a stale window)
    serve_stale: bool = True
    #: per-request resolution deadline in seconds (0 = unbounded);
    #: should sit at or below the clients' own request timeout
    request_deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.high_watermark <= 0:
            raise ValueError(f"high_watermark must be positive, got {self.high_watermark}")
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ValueError(
                f"low_watermark {self.low_watermark} must sit in "
                f"[0, high_watermark={self.high_watermark}]"
            )


@dataclass
class OverloadStats:
    #: times shedding engaged (high watermark crossed)
    shed_engagements: int = 0
    #: benign requests admitted in the hysteresis band while suspects
    #: were being shed
    band_admissions: int = 0


class OverloadController:
    """Watermark-hysteresis admission control over a pending-request table.

    The owner reports its table size through :meth:`admit` (one call per
    cache-missing request) and honours the returned decision.  Client
    priority comes from the caller: ``0`` = normal, ``1`` = suspicious,
    ``2`` = convicted (the resolver maps its DCC shim's verdicts onto
    this scale; without a shim everyone is normal).
    """

    def __init__(self, config: Optional[OverloadConfig] = None) -> None:
        self.config = config or OverloadConfig()
        self.stats = OverloadStats()
        self.shedding = False
        #: load carried by aggregate (fluid) traffic models, in
        #: pending-request equivalents: added to every watermark
        #: comparison so admission control reacts to background load
        #: that never materializes as table entries (docs/SCALING.md).
        #: Zero (the default) leaves behaviour bit-identical.
        self.external_pressure = 0.0

    def _effective(self, pending: int) -> float:
        if self.external_pressure <= 0.0:
            return float(pending)
        return pending + self.external_pressure

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def observe(self, pending: int) -> None:
        """Update the hysteresis state from the current table size."""
        effective = self._effective(pending)
        if not self.shedding and effective >= self.config.high_watermark:
            self.shedding = True
            self.stats.shed_engagements += 1
        elif self.shedding and effective <= self.config.low_watermark:
            self.shedding = False

    def pressure(self, pending: int) -> bool:
        """Is the front end saturated right now (stale-fast-path signal)?"""
        self.observe(pending)
        return self.shedding

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, pending: int, priority: int = 0) -> bool:
        """Admit or shed one cache-missing request.

        ``pending`` is the table size before this request; ``priority``
        is the client's suspicion rank.  While shedding, suspects are
        refused outright; normal clients are refused only while the
        table still sits at or above the high watermark (between the
        watermarks the remaining capacity drains suspect-free).  The
        caller counts what it refuses (``ResolverStats.shed_requests``).
        """
        self.observe(pending)
        if not self.shedding:
            return True
        if priority > 0 or self._effective(pending) >= self.config.high_watermark:
            return False
        self.stats.band_admissions += 1
        return True

    def deadline_for(self, now: float) -> Optional[float]:
        """Absolute resolution deadline for a request admitted at ``now``."""
        if self.config.request_deadline <= 0:
            return None
        return now + self.config.request_deadline

    def reset(self) -> None:
        """Crash semantics: shedding state is process memory."""
        self.shedding = False
