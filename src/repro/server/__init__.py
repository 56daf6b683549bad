"""DNS server implementations: the substrate under attack.

- :mod:`repro.server.ratelimit` -- the ingress/egress rate-limiter
  tables (over :mod:`repro.util.tokenbucket`) whose capacities create the
  inter-server channels an adversary congests (paper Section 2.2);
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

from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.server.forwarder import Forwarder, ForwarderConfig

__all__ = [
    "AuthoritativeServer",
    "RecursiveResolver",
    "ResolverConfig",
    "Forwarder",
    "ForwarderConfig",
]
