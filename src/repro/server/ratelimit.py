"""Rate-limiter tables keyed by peer address.

Rate limiting (RL) is the measure that *creates* the attack surface the
paper studies: "RL is an indispensable measure to mitigate DoS attacks in
general, whereas it also enables an attacker to congest a rate-limited
channel at a substantially lower cost than overloading an entire server"
(Section 2.3).  The underlying :class:`TokenBucket` and
:class:`WindowedCounter` primitives live in
:mod:`repro.util.tokenbucket` (DCC shares them without importing the
server layer).

Everything is driven by virtual time passed in by the caller; no wall
clock is read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.util.tokenbucket import TokenBucket, WindowedCounter

__all__ = [
    "RateLimitAction",
    "RateLimitConfig",
    "RateLimiter",
]


class RateLimitAction(enum.Enum):
    """What a server does to over-limit traffic (Section 2.2.1 observes
    all three in the wild)."""

    DROP = "drop"  # silent drop -> client sees a timeout
    SERVFAIL = "servfail"  # answer with RCODE=SERVFAIL
    REFUSED = "refused"  # answer with RCODE=REFUSED


#: drop state entries idle for this long (seconds)
IDLE_TIMEOUT = 60.0


@dataclass
class RateLimitConfig:
    """Configuration of one rate-limiter table."""

    rate: float  # sustained queries/second per key
    burst: Optional[float] = None  # bucket depth; defaults to one second of rate
    action: RateLimitAction = RateLimitAction.DROP
    #: "window": BIND-RRL-style one-second fixed windows (the first
    #: ``rate`` messages of each pass, the rest drop); "bucket": token bucket.
    mode: str = "bucket"


@dataclass
class _Entry:
    bucket: object  # TokenBucket or WindowedCounter
    last_seen: float = 0.0
    allowed: int = 0
    limited: int = 0


class RateLimiter:
    """A per-address token-bucket table.

    This is the generic building block behind:

    - authoritative ingress/response RL ("IRL" in Figure 2),
    - resolver ingress RL on clients,
    - resolver egress RL towards upstream servers ("ERL"),
    - DCC pre-queue policing rate limits.
    """

    def __init__(self, config: RateLimitConfig) -> None:
        self.config = config
        self._entries: Dict[str, _Entry] = {}
        self.total_allowed = 0
        self.total_limited = 0

    def _entry(self, key: str) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            if self.config.mode == "window":
                limiter = WindowedCounter(self.config.rate)
            else:
                limiter = TokenBucket(self.config.rate, self.config.burst)
            entry = _Entry(limiter)
            self._entries[key] = entry
        return entry

    def allow(self, address: str, now: float, amount: float = 1.0) -> bool:
        """Account one message from/to ``address``; True if under limit."""
        entry = self._entry(address)
        entry.last_seen = now
        if entry.bucket.try_consume(now, amount):
            entry.allowed += 1
            self.total_allowed += 1
            return True
        entry.limited += 1
        self.total_limited += 1
        return False

    def purge(self, now: float) -> int:
        """Drop entries idle longer than :data:`IDLE_TIMEOUT`; returns count."""
        stale = [
            key
            for key, entry in self._entries.items()
            if now - entry.last_seen > IDLE_TIMEOUT
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)
