"""DNS server implementations: the substrate under attack.

- :mod:`repro.server.ratelimit` -- token buckets and the ingress/egress
  rate-limiter tables whose capacities create the inter-server channels
  an adversary congests (paper Section 2.2);
- :mod:`repro.server.authoritative` -- authoritative nameserver with
  response rate limiting;
- :mod:`repro.server.cache` -- resolver cache (positive + negative, TTL,
  LRU-bounded);
- :mod:`repro.server.resolver` -- recursive resolver performing iterative
  resolution with QNAME minimisation, CNAME chasing, NS-address fan-out,
  retries, and egress rate limiting;
- :mod:`repro.server.forwarder` -- forwarding resolver with upstream
  failover;
- :mod:`repro.server.health` -- per-upstream adaptive RTO estimation
  (RFC 6298) and circuit breakers;
- :mod:`repro.server.overload` -- front-end admission control with
  watermark hysteresis and suspicion-aware priority shedding.
"""

from repro.server.ratelimit import RateLimiter, RateLimitAction, RateLimitConfig
from repro.server.cache import ResolverCache, CacheEntry
from repro.server.authoritative import AuthoritativeServer
from repro.server.health import (
    BreakerState,
    HealthConfig,
    HealthRegistry,
    HealthStats,
    UpstreamHealth,
)
from repro.server.overload import (
    OverloadConfig,
    OverloadController,
    OverloadStats,
    ShedPolicy,
)
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.server.forwarder import Forwarder, ForwarderConfig
from repro.util.tokenbucket import TokenBucket

__all__ = [
    "TokenBucket",
    "RateLimiter",
    "RateLimitAction",
    "RateLimitConfig",
    "ResolverCache",
    "CacheEntry",
    "AuthoritativeServer",
    "BreakerState",
    "HealthConfig",
    "HealthRegistry",
    "HealthStats",
    "UpstreamHealth",
    "OverloadConfig",
    "OverloadController",
    "OverloadStats",
    "ShedPolicy",
    "RecursiveResolver",
    "ResolverConfig",
    "Forwarder",
    "ForwarderConfig",
]
