"""The rate-limit measurement study (paper Section 2.2.1 / Appendix A).

The paper probes 45 public resolvers (Table 3) for ingress and egress
rate limits using four query patterns, producing Figure 2.  Public
resolvers are not reachable from a simulation, so:

- :mod:`repro.measure.population` builds 45 resolver models whose hidden
  RL configurations are drawn to match the measured landscape (the names
  are Table 3's; the ground-truth limits are synthetic);
- :mod:`repro.measure.prober` reimplements the probing methodology --
  dnsperf-style self-paced QPS estimation, binary search over probe
  rates, the "uncertain" criteria, and egress estimation from the
  authoritative-side query log.

Because the methodology itself is what is being reproduced, the prober
never reads a resolver's hidden configuration: it interacts with the
simulated resolver purely through DNS traffic.
"""

from repro.measure.population import build_population
from repro.measure.prober import RateLimitProber

__all__ = [
    "build_population",
    "RateLimitProber",
]
