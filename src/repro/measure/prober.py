"""The rate-limit probing methodology (paper Appendix A).

For each resolver in the population, the prober builds a private
simulated topology (probe client -> resolver -> authoritative servers)
and estimates:

- **ingress limits** with the WC and NX patterns: dnsperf-style
  fixed-rate probing where the estimated QPS counts only NOERROR /
  NXDOMAIN responses, ramping from 100 QPS and binary-searching up to
  5000 QPS; a resolver whose throughput keeps up at the 5000 QPS bound
  is *uncertain*;
- **egress limits** with the CQ and FF amplification patterns: the
  probe rate starts at 10 QPS and rises binary-search style while the
  resolver's egress QPS is read from the authoritative server's query
  log; a plateau (egress stops increasing with the probe rate) marks the
  limit, and the probe rate is capped at min(ingress limit, 1000 QPS).

Real measurements take 30-60 s per step and pause between them; the
``scale`` knob shrinks rates and durations proportionally so the full
45-resolver sweep stays laptop-sized while every decision rule is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.link import Network
from repro.netsim.node import Node
from repro.netsim.sim import Simulator
from repro.measure.population import ResolverProfile
from repro.server.authoritative import AuthoritativeServer
from repro.server.ratelimit import RateLimitConfig, RateLimiter
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.patterns import (
    CnameChainPattern,
    FanoutPattern,
    NxdomainPattern,
    QueryPattern,
    WildcardPattern,
)
from repro.workloads.zonegen import (
    add_cq_instances,
    build_ff_attacker_zone,
    build_root_zone,
    build_target_zone,
)


# Probing parameters: paper values, rates and bounds multiplied by the
# prober's ``scale``.
INGRESS_START = 100.0
INGRESS_BOUND = 5000.0
EGRESS_START = 10.0
EGRESS_BOUND = 1000.0
#: measurement duration per probe step (paper: 30 s, 15 s for egress)
INGRESS_DURATION = 2.0
EGRESS_DURATION = 2.0
COOLDOWN = 0.5
#: a step is saturated when achieved < ratio * offered
SATURATION_RATIO = 0.85
#: egress plateau: step-over-step growth below this ratio
PLATEAU_RATIO = 1.15
BINARY_SEARCH_STEPS = 3
#: amplification pattern parameters
FF_FANOUT = 5
CQ_CHAIN = 6
CQ_LABELS = 8
PATTERN_INSTANCES = 64


@dataclass
class IngressProbeResult:
    resolver: str
    pattern: str  # "WC" or "NX"
    #: estimated limit in *unscaled* QPS; None = uncertain
    limit: Optional[float]
    probe_steps: int


@dataclass
class EgressProbeResult:
    resolver: str
    pattern: str  # "CQ" or "FF"
    limit: Optional[float]
    probe_steps: int
    #: highest egress QPS observed (unscaled)
    peak_egress: float = 0.0


class _ProfiledResolver(RecursiveResolver):
    """A resolver whose ingress RL differentiates response types.

    BIND-style response rate limiting can configure separate limits per
    RCODE (Section 2.2.1); the population profiles use that for the
    NXDOMAIN-specific limits some real resolvers show.
    """

    def __init__(self, address: str, profile: ResolverProfile, config: ResolverConfig, scale: float) -> None:
        super().__init__(address, config)
        self._profile = profile
        self._scale = scale
        self._noerror_rl: Optional[RateLimiter] = None
        self._nx_rl: Optional[RateLimiter] = None
        # Sub-second burst depth: real RRL windows are small, and a deep
        # bucket would systematically inflate short-window estimates.
        if profile.ingress_limit is not None:
            rate = profile.ingress_limit * scale
            self._noerror_rl = RateLimiter(RateLimitConfig(rate=rate, burst=max(1.0, rate * 0.1)))
        nx_limit = profile.effective_ingress(nxdomain=True)
        if nx_limit is not None:
            rate = nx_limit * scale
            self._nx_rl = RateLimiter(RateLimitConfig(rate=rate, burst=max(1.0, rate * 0.1)))

    def _respond(self, client: str, response: Message) -> None:
        limiter = self._nx_rl if response.rcode == RCode.NXDOMAIN else self._noerror_rl
        if limiter is None:
            limiter = self._noerror_rl
        if limiter is not None and not limiter.allow(client, self.now):
            action = self._profile.action
            if action == "drop":
                return
            error = Message(
                question=response.question,
                id=response.id,
                flags=response.flags,
                rcode=RCode.SERVFAIL if action == "servfail" else RCode.REFUSED,
            )
            super()._respond(client, error)
            return
        super()._respond(client, response)


class _ProbeSource(Node):
    """Fixed-rate probe traffic with success counting (dnsperf-like)."""

    def __init__(self, address: str, resolver: str) -> None:
        super().__init__(address)
        self.resolver = resolver
        self.successes = 0
        self.sent = 0
        self._active = False
        self._pattern: Optional[QueryPattern] = None
        self._rate = 0.0

    def run_burst(self, pattern: QueryPattern, rate: float, duration: float) -> None:
        self._pattern = pattern
        self._rate = rate
        self._active = True
        self.successes = 0
        self.sent = 0
        self.sim.schedule(0.0, self._tick)
        self.sim.schedule(duration, self._stop)

    def _stop(self) -> None:
        self._active = False

    def _tick(self) -> None:
        if not self._active:
            return
        rng = self.sim.rng(f"probe.{self.address}")
        question = self._pattern.next_question(rng)
        self.send(self.resolver, Message.query(question.name, question.rrtype))
        self.sent += 1
        self.sim.schedule(1.0 / self._rate, self._tick)

    def receive(self, message: Message, src: str) -> None:
        if message.is_response and message.rcode in (RCode.NOERROR, RCode.NXDOMAIN):
            self.successes += 1


class RateLimitProber:
    """Runs the Appendix A methodology against one resolver profile."""

    TARGET_ORIGIN = "target-domain."
    ATTACKER_ORIGIN = "attacker-com."

    def __init__(self, profile: ResolverProfile, scale: float = 1.0, seed: int = 7) -> None:
        self.profile = profile
        #: global scale applied to rates and bounds (0.1 -> 10x faster runs)
        self.scale = scale
        self.seed = seed
        self._build_topology()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.net = Network(self.sim)
        root_zone = build_root_zone(
            {
                self.TARGET_ORIGIN: ("ns1.target-domain.", "10.0.0.2"),
                self.ATTACKER_ORIGIN: ("ns1.attacker-com.", "10.0.0.3"),
            }
        )
        # Appendix A.1: measurement records use TTL 600 so that pooled
        # names are answered from cache; amplification records use TTL 1
        # so they are re-queried every time.
        target_zone = build_target_zone(
            self.TARGET_ORIGIN, "ns1", "10.0.0.2", answer_ttl=600, negative_ttl=600, ff_ttl=1
        )
        add_cq_instances(
            target_zone, PATTERN_INSTANCES, chain_len=CQ_CHAIN, labels=CQ_LABELS, ttl=1
        )
        attacker_zone = build_ff_attacker_zone(
            self.ATTACKER_ORIGIN,
            self.TARGET_ORIGIN,
            "ns1",
            "10.0.0.3",
            instances=PATTERN_INSTANCES,
            fanout=FF_FANOUT,
        )
        self.root = AuthoritativeServer("10.0.0.1", zones=[root_zone])
        self.target_ans = AuthoritativeServer("10.0.0.2", zones=[target_zone])
        self.attacker_ans = AuthoritativeServer("10.0.0.3", zones=[attacker_zone])

        egress_rl = None
        if self.profile.egress_limit is not None:
            rate = self.profile.egress_limit * self.scale
            egress_rl = RateLimitConfig(rate=rate, burst=max(1.0, rate * 0.1))
        resolver_config = ResolverConfig(
            qname_minimization=True,
            egress_limit=egress_rl,
        )
        self.resolver = _ProfiledResolver(
            self.profile.address, self.profile, resolver_config, self.scale
        )
        self.resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
        self.probe = _ProbeSource("198.51.100.10", self.profile.address)
        for node in (self.root, self.target_ans, self.attacker_ans, self.resolver, self.probe):
            self.net.attach(node)

    # ------------------------------------------------------------------
    # one probe step
    # ------------------------------------------------------------------
    def _measure(self, pattern: QueryPattern, rate: float, duration: float) -> Tuple[float, float]:
        """Offer ``rate`` for ``duration``; return (achieved client QPS,
        egress QPS observed at the target authoritative server)."""
        egress_before = self.target_ans.stats.queries_received
        self.probe.run_burst(pattern, rate, duration)
        self.sim.run(until=self.sim.now + duration + 0.5)
        achieved = self.probe.successes / duration
        egress = (self.target_ans.stats.queries_received - egress_before) / duration
        # Cooldown between measurements (paper waits 60 s).
        self.sim.run(until=self.sim.now + COOLDOWN)
        return achieved, egress

    # ------------------------------------------------------------------
    # ingress methodology
    # ------------------------------------------------------------------
    def probe_ingress(self, pattern_tag: str) -> IngressProbeResult:
        """Binary-search the ingress limit with the WC or NX pattern."""
        pattern: QueryPattern
        if pattern_tag == "WC":
            pattern = WildcardPattern(self.TARGET_ORIGIN)
        elif pattern_tag == "NX":
            pattern = NxdomainPattern(self.TARGET_ORIGIN)
        else:
            raise ValueError(f"ingress probing uses WC or NX, not {pattern_tag}")

        steps = 0
        rate = INGRESS_START * self.scale
        bound = INGRESS_BOUND * self.scale
        last_good = 0.0
        saturated_rate: Optional[float] = None
        saturated_achieved = 0.0

        while rate <= bound:
            # Bound the name pool to the probing QPS: most requests hit
            # the resolver cache, isolating ingress RL from egress RL.
            pattern.pool_size = max(8, int(rate))
            achieved, _ = self._measure(pattern, rate, INGRESS_DURATION)
            steps += 1
            if achieved < rate * SATURATION_RATIO:
                saturated_rate = rate
                saturated_achieved = achieved
                break
            last_good = rate
            if rate >= bound:
                break
            rate = min(rate * 2, bound)

        if saturated_rate is None:
            return IngressProbeResult(self.profile.name, pattern_tag, None, steps)

        # Refine between last_good and saturated_rate.
        lo, hi = max(last_good, 1.0), saturated_rate
        estimate = max(saturated_achieved, lo)
        for _ in range(BINARY_SEARCH_STEPS):
            mid = (lo + hi) / 2
            if mid <= lo * 1.05:
                break
            pattern.pool_size = max(8, int(mid))
            achieved, _ = self._measure(pattern, mid, INGRESS_DURATION)
            steps += 1
            if achieved < mid * SATURATION_RATIO:
                hi = mid
                estimate = max(achieved, lo)
            else:
                lo = mid
                estimate = max(estimate, achieved)
        return IngressProbeResult(
            self.profile.name, pattern_tag, estimate / self.scale, steps
        )

    # ------------------------------------------------------------------
    # egress methodology
    # ------------------------------------------------------------------
    def probe_egress(self, pattern_tag: str, ingress_limit: Optional[float]) -> EgressProbeResult:
        """Ramp amplification traffic; detect the egress QPS plateau."""
        pattern: QueryPattern
        if pattern_tag == "CQ":
            pattern = CnameChainPattern(self.TARGET_ORIGIN, PATTERN_INSTANCES, labels=CQ_LABELS)
        elif pattern_tag == "FF":
            pattern = FanoutPattern(self.ATTACKER_ORIGIN, PATTERN_INSTANCES)
        else:
            raise ValueError(f"egress probing uses CQ or FF, not {pattern_tag}")

        bound = EGRESS_BOUND * self.scale
        if ingress_limit is not None:
            bound = min(bound, ingress_limit * self.scale)

        steps = 0
        rate = EGRESS_START * self.scale
        prev_egress = 0.0
        peak = 0.0
        plateau: Optional[float] = None
        while rate <= bound:
            _, egress = self._measure(pattern, rate, EGRESS_DURATION)
            steps += 1
            peak = max(peak, egress)
            if prev_egress > 0 and egress < prev_egress * PLATEAU_RATIO:
                plateau = max(egress, prev_egress)
                break
            prev_egress = egress
            if rate >= bound:
                break
            rate = min(rate * 2, bound)

        limit = plateau / self.scale if plateau is not None else None
        return EgressProbeResult(
            self.profile.name, pattern_tag, limit, steps, peak_egress=peak / self.scale
        )
