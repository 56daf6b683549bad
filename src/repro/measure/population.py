"""The measured resolver population (paper Table 3 + Figure 2 ground truth).

Table 3 lists the 45 public resolvers the paper probes.  Their actual
rate-limit configurations are unknown (that is what the measurement
estimates), so this module synthesises hidden ground-truth profiles whose
*distribution* matches Figure 2's findings:

- over a third of resolvers have an ingress limit below 100 QPS;
- around 40 of 45 are below 1500 QPS;
- a few enforce lower limits for NXDOMAIN responses (Water Torture
  countermeasure);
- some vary limits per source prefix (the paper reports the per-probe
  minimum);
- egress limits are uncertain for about half, with the certain ones
  mostly between 100 and 1500 QPS;
- over-limit actions vary: silent drop, SERVFAIL, or REFUSED.

The prober never sees these profiles; experiments compare its estimates
against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: (name, anycast address) pairs from Table 3.
TABLE3_RESOLVERS: List[Tuple[str, str]] = [
    ("AdGuard DNS", "94.140.14.14"),
    ("AliDNS", "223.5.5.5"),
    ("AMAZON-02", "54.93.169.181"),
    ("Baidu Public DNS", "180.76.76.76"),
    ("CIRA Canadian", "149.112.121.10"),
    ("CNNIC-SDNS", "1.2.4.8"),
    ("CenturyLink", "205.171.3.65"),
    ("CleanBrowsing", "185.228.168.9"),
    ("Cloudflare", "1.1.1.1"),
    ("Cogent Comm.", "66.28.0.61"),
    ("Comodo Secure DNS", "8.26.56.26"),
    ("Control D", "76.76.2.0"),
    ("Cyberlink AG", "89.249.44.73"),
    ("DNS for Family", "94.130.180.225"),
    ("DNS.WATCH", "84.200.69.80"),
    ("DNSForge", "176.9.93.198"),
    ("DNSpai", "101.226.4.6"),
    ("Deutsche Telekom", "194.25.0.68"),
    ("Dyn", "216.146.35.35"),
    ("Fortinet", "208.91.112.53"),
    ("Freenom World", "80.80.80.80"),
    ("GCore Free", "95.85.95.85"),
    ("Google DNS", "8.8.8.8"),
    ("InfoServer GmbH", "212.89.130.180"),
    ("Level 3 DNS", "209.244.0.3"),
    ("Liteserver", "5.2.75.75"),
    ("NTT America", "129.250.35.250"),
    ("Neustar", "64.6.64.6"),
    ("NextDNS", "45.90.30.193"),
    ("Nextgi LLC", "134.195.4.2"),
    ("Norton-ConnectSafe", "199.85.126.10"),
    ("OVH SAS", "217.182.198.203"),
    ("OneDNS", "117.50.10.10"),
    ("OpenDNS Home", "208.67.222.222"),
    ("OpenNIC", "51.77.149.139"),
    ("Probe Networks", "82.96.65.2"),
    ("Quad101", "101.101.101.101"),
    ("Quad9", "9.9.9.9"),
    ("ScanPlus GmbH", "212.211.132.4"),
    ("Swisscom", "195.186.4.110"),
    ("TEFINCOM S.A.", "103.86.96.100"),
    ("TREX", "195.140.195.21"),
    ("Vodafone", "195.27.1.1"),
    ("xTom", "77.88.8.8"),
    ("114DNS", "114.114.114.114"),
]


@dataclass
class ResolverProfile:
    """Hidden ground truth for one resolver in the population."""

    name: str
    address: str
    #: ingress limit (QPS) for NOERROR traffic; None = no limit observed
    #: up to the probing bound ("uncertain" in Figure 2)
    ingress_limit: Optional[float]
    #: separate (usually lower) limit for NXDOMAIN responses; None = same
    ingress_limit_nx: Optional[float]
    #: egress limit (QPS) towards any upstream server; None = unlimited
    egress_limit: Optional[float]
    #: what the resolver does to over-limit clients
    action: str  # "drop" | "servfail" | "refused"

    def effective_ingress(self, nxdomain: bool) -> Optional[float]:
        if nxdomain and self.ingress_limit_nx is not None:
            return self.ingress_limit_nx
        return self.ingress_limit


#: Figure 2's bucket boundaries (QPS).
FIGURE2_BUCKETS: List[Tuple[float, float]] = [
    (1, 100),
    (101, 500),
    (501, 1500),
    (1501, 5000),
]


def _draw_ingress(rng: random.Random) -> Optional[float]:
    """Ingress limit distribution matching Figure 2's IRL bars."""
    roll = rng.random()
    if roll < 0.37:  # over a third below 100 QPS
        return rng.choice([20, 30, 50, 60, 80, 100])
    if roll < 0.62:
        return rng.choice([150, 200, 300, 400, 500])
    if roll < 0.87:
        return rng.choice([600, 800, 1000, 1200, 1500])
    if roll < 0.95:
        return rng.choice([2000, 3000, 4000])
    return None  # uncertain: no limit below the 5000 QPS probing bound


def _draw_egress(rng: random.Random, ingress: Optional[float]) -> Optional[float]:
    """Egress limits: ~half uncertain, the rest mostly 100-1500 QPS.

    The paper notes egress limits are often *higher* than ingress limits
    (which is why amplification patterns are needed to measure them).
    """
    if rng.random() < 0.5:
        return None
    base = rng.choice([100, 200, 400, 600, 800, 1000, 1200, 1500])
    if ingress is not None and base < ingress * 0.5:
        base = ingress  # egress rarely far below ingress
    return float(base)


def build_population(seed: int = 2024) -> List[ResolverProfile]:
    """All 45 Table 3 resolvers with synthetic hidden profiles."""
    rng = random.Random(seed)
    profiles: List[ResolverProfile] = []
    for name, address in TABLE3_RESOLVERS:
        ingress = _draw_ingress(rng)
        # A few resolvers penalise NXDOMAIN specifically (Section 2.2.1).
        nx_limit = None
        if ingress is not None and rng.random() < 0.2:
            nx_limit = max(10.0, ingress * rng.choice([0.25, 0.5]))
        profiles.append(
            ResolverProfile(
                name=name,
                address=address,
                ingress_limit=ingress,
                ingress_limit_nx=nx_limit,
                egress_limit=_draw_egress(rng, ingress),
                action=rng.choice(["drop", "drop", "servfail", "refused"]),
            )
        )
    return profiles


def bucket_of(limit: Optional[float], uncertain_bound: float = 5000.0) -> str:
    """Figure 2 bucket label for a (true or estimated) limit."""
    if limit is None or limit > uncertain_bound:
        return "Uncertain"
    for lo, hi in FIGURE2_BUCKETS:
        if lo <= limit <= hi:
            return f"{lo}-{hi}"
    return "Uncertain"
