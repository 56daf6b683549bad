"""Pre-queue policing of convicted clients (paper Section 3.2.3).

Once the anomaly monitor convicts a client, a policy is activated and
enforced on every query *attributed* to that client **before** MOPI-FQ
queuing -- non-compliant queries never occupy queue space, which
preserves both fairness and performance for everyone else.  Cache-hit
requests are unaffected (the resolver's fast path never reaches DCC).

Policies used in the paper's evaluation (Section 5.1):

- NXDOMAIN anomalies -> rate limit to 100 QPS for 20 seconds;
- amplification anomalies -> block all queries for 30 seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import sanitize as simsan
from repro.dcc.monitor import AnomalyKind
from repro.obs import NULL_OBS
from repro.util.tokenbucket import TokenBucket


class PolicyKind(enum.IntEnum):
    RATE_LIMIT = 1
    BLOCK = 2


@dataclass
class Policy:
    """An active control policy on one client."""

    kind: PolicyKind
    expires_at: float
    #: for RATE_LIMIT: allowed attributed-query rate (QPS)
    rate: float = 0.0
    reason: Optional[AnomalyKind] = None
    bucket: Optional[TokenBucket] = None

    def active(self, now: float) -> bool:
        return now < self.expires_at

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def permits(self, now: float) -> bool:
        """Does this policy let one more query through right now?"""
        if self.kind == PolicyKind.BLOCK:
            return False
        assert self.bucket is not None
        return self.bucket.try_consume(now)


@dataclass
class PolicyTemplate:
    """How to police a given anomaly kind."""

    kind: PolicyKind
    duration: float
    rate: float = 0.0


#: Default anomaly -> policy mapping, straight from Section 5.1.
DEFAULT_TEMPLATES: Dict[AnomalyKind, PolicyTemplate] = {
    AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.RATE_LIMIT, duration=20.0, rate=100.0),
    AnomalyKind.AMPLIFICATION: PolicyTemplate(PolicyKind.BLOCK, duration=30.0),
    AnomalyKind.RATE: PolicyTemplate(PolicyKind.RATE_LIMIT, duration=20.0, rate=100.0),
}

#: Policy applied when an upstream signal (not local conviction) tells a
#: resolver to control a client: the paper's forwarder experiment
#: configures blocking as "the default policy for signal-triggered
#: policing" (Section 5.1).
SIGNAL_TRIGGERED_TEMPLATE = PolicyTemplate(PolicyKind.BLOCK, duration=30.0)


@dataclass
class PolicingStats:
    policies_activated: int = 0
    policies_expired: int = 0
    queries_blocked: int = 0
    queries_rate_limited: int = 0
    queries_passed: int = 0


class PolicyEngine:
    """Active policies per client, with expiry callbacks."""

    def __init__(
        self,
        templates: Optional[Dict[AnomalyKind, PolicyTemplate]] = None,
        on_expire: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.templates = dict(DEFAULT_TEMPLATES if templates is None else templates)
        self.on_expire = on_expire
        self._policies: Dict[str, Policy] = {}
        self.stats = PolicingStats()
        #: observability facade + the owning shim's track (scenario wiring)
        self.obs = NULL_OBS
        self.obs_track = ""

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def convict(self, client: str, kind: AnomalyKind, now: float) -> Policy:
        """Activate the template policy for ``kind`` on ``client``."""
        template = self.templates.get(
            kind, PolicyTemplate(PolicyKind.RATE_LIMIT, duration=20.0, rate=100.0)
        )
        return self.apply(client, template, now, reason=kind)

    def apply(
        self,
        client: str,
        template: PolicyTemplate,
        now: float,
        reason: Optional[AnomalyKind] = None,
    ) -> Policy:
        policy = Policy(
            kind=template.kind,
            expires_at=now + template.duration,
            rate=template.rate,
            reason=reason,
        )
        if simsan.ENABLED and policy.expires_at < now:
            simsan.fail(
                f"policy for {client!r} expires in the past "
                f"({policy.expires_at!r} < {now!r}); negative duration?"
            )
        if policy.kind == PolicyKind.RATE_LIMIT:
            policy.bucket = TokenBucket(max(template.rate, 1e-9), max(template.rate, 1.0))
        self._policies[client] = policy
        self.stats.policies_activated += 1
        if self.obs.enabled:
            self.obs.instant(
                "police.activate",
                self.obs_track,
                now,
                client=client,
                kind=policy.kind.name,
                duration=template.duration,
            )
        return policy

    # ------------------------------------------------------------------
    # enforcement (the pre-queue check)
    # ------------------------------------------------------------------
    def check(self, client: str, now: float) -> bool:
        """True if a query attributed to ``client`` may proceed to FQ."""
        policy = self._policies.get(client)
        if policy is None:
            self.stats.queries_passed += 1
            return True
        if not policy.active(now):
            self._expire(client)
            self.stats.queries_passed += 1
            return True
        if policy.permits(now):
            self.stats.queries_passed += 1
            return True
        if policy.kind == PolicyKind.BLOCK:
            self.stats.queries_blocked += 1
        else:
            self.stats.queries_rate_limited += 1
        return False

    def _expire(self, client: str) -> None:
        self._policies.pop(client, None)
        self.stats.policies_expired += 1
        if self.on_expire is not None:
            self.on_expire(client)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def policy_for(self, client: str, now: float) -> Optional[Policy]:
        policy = self._policies.get(client)
        if policy is not None and not policy.active(now):
            self._expire(client)
            return None
        return policy

    def active_policies(self, now: float) -> Dict[str, Policy]:
        return {
            client: policy
            for client, policy in self._policies.items()
            if policy.active(now)
        }

    def sweep(self, now: float) -> int:
        """Expire stale policies eagerly; returns how many were removed."""
        stale = [c for c, p in self._policies.items() if not p.active(now)]
        for client in stale:
            self._expire(client)
        return len(stale)
