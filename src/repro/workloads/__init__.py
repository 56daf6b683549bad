"""Workloads: query patterns, zone generators, and traffic sources.

The four query patterns from the paper's measurement study
(Section 2.2.1 / Appendix A):

- **P1 WC**: pseudo-random names answered by wildcard synthesis
  (NOERROR, cache-bypassing);
- **P2 NX**: pseudo-random names eliciting NXDOMAIN (the pseudo-random
  subdomain / Water Torture pattern);
- **P3 CQ**: predefined names starting long CNAME chains whose targets
  have many labels -- amplified by QNAME minimisation;
- **P4 FF**: predefined names owning large NS fan-outs whose targets
  own further NS fan-outs -- quadratic amplification (Figure 12b).

Plus the clients that send them: configurable stubs (rate, start/stop,
retries, optional DCC-awareness) and the Table 2 schedules used by the
Figure 8/9 evaluation scenarios.
"""

from repro.workloads.patterns import WildcardPattern
from repro.workloads.zonegen import build_root_zone, build_target_zone
from repro.workloads.clients import StubClient, ClientConfig
from repro.workloads.schedule import ClientSpec

__all__ = [
    "WildcardPattern",
    "build_root_zone",
    "build_target_zone",
    "StubClient",
    "ClientConfig",
    "ClientSpec",
]
