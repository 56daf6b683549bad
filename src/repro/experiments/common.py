"""Shared scenario machinery for the attack/defense experiments.

Builds the Figure 3 topologies on either transport backend (the
simulator by default, or real sockets):

- a root authoritative server delegating the experiment domains;
- one or more **target** authoritative servers (the congested RA
  channel's upstream end) with optional ingress RL;
- an **attacker** authoritative server hosting the FF zone;
- one or more recursive resolvers (optionally DCC-enabled);
- an optional forwarder in front (setups c/d), itself optionally
  DCC-enabled;
- the Table 2 client population.

Metrics: per-client effective QPS (successful responses per second,
the Figure 8 metric), per-client on-the-wire query series measured at
the resolver egress tap (the Figure 8c FF metric), and windowed success
ratios (the Figure 4 metric).
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Union

from repro.dcc.monitor import MonitorConfig
from repro.dcc.mopifq import MopiFqConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.dnscore.edns import ClientAttribution, OptionCode
from repro.dnscore.message import Message, Question
from repro.netsim.faults import FaultInjector
from repro.netsim.link import Network
from repro.obs import ObsConfig, Observability
from repro.analysis.series import TimeSeries
from repro.server.authoritative import AuthoritativeServer
from repro.server.forwarder import Forwarder, ForwarderConfig
from repro.server.ratelimit import RateLimitConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.transport.base import TransportBackend
from repro.transport.simnet import VirtualBackend
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import (
    FanoutPattern,
    NxdomainPattern,
    QueryPattern,
    WildcardPattern,
)
from repro.workloads.schedule import ClientSpec
from repro.workloads.zonegen import (
    add_ff_delegations,
    build_ff_attacker_zone,
    build_root_zone,
    build_target_zone,
)

TARGET_ORIGIN = "target-domain."
ATTACKER_ORIGIN = "attacker-com."
ROOT_ADDR = "10.0.0.1"
ATTACKER_ANS_ADDR = "10.0.0.3"


def target_ans_addr(i: int) -> str:
    """Address of target authoritative ``i`` (10.0.0.2, 10.0.0.12, ...)."""
    return f"10.0.0.{2 + 10 * i}"


def resolver_addr(i: int) -> str:
    """Address of recursive resolver ``i`` (10.0.1.1, 10.0.1.2, ...)."""
    return f"10.0.1.{i + 1}"


#: the first target authoritative and the first resolver: in every cast
TARGET_ANS_ADDR = target_ans_addr(0)
RESOLVER_ADDR = resolver_addr(0)
#: stub-client request timeout, also the forwarder's upstream timeout
CLIENT_TIMEOUT = 2.0


def report_failures(problems: List[str]) -> int:
    """A driver's ``failures()`` to stderr (stdout is the recorded figure); its exit code."""
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def not_judged(claim: str, why: str) -> None:
    """A run too small to judge ``claim`` says so instead of passing silently."""
    print(f"not judged: {claim} ({why})", file=sys.stderr)


def write_obs(obs: Observability, out_dir: str, stem: str, full_tree: bool) -> List[str]:
    """Export one observed run as ``out_dir/<stem>.metrics.jsonl`` (with the
    heavy hitters) and ``<stem>.trace.json``; what is wrong with them.

    The trace must pass the schema gate and, with ``full_tree``, hold one
    query whose span tree crosses client -> resolver -> MOPI-FQ -> auth."""
    # imported here: a driver run without obs loads neither (perf counts imports in its set-up time)
    import json

    from repro.obs.export import chrome_trace, find_full_query_root, metrics_jsonl, validate_chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, stem)
    sketches = {"hh_queries": obs.hh_queries, "hh_nxdomain": obs.hh_nxdomain, "hh_bytes": obs.hh_bytes}
    with open(f"{path}.metrics.jsonl", "w", encoding="utf-8") as handle:
        handle.write(metrics_jsonl(obs.metrics, sketches))
    doc = chrome_trace(obs.tracer)
    with open(f"{path}.trace.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, separators=(",", ":")))  # dumps: json.dump never uses the C encoder
    problems = validate_chrome_trace(doc)
    out = [f"{path}.trace.json: {len(problems)} schema problem(s), first: {problems[0]}"] if problems else []
    if full_tree and find_full_query_root(obs.tracer) is None:
        out.append(f"{path}.trace.json: no query's span tree crosses client -> resolver -> MOPI-FQ -> auth")
    return out


class SwitchingPattern(QueryPattern):
    """Switches from one pattern to another at a fixed virtual time.

    Used for the Figure 8(b) heavy client, which abuses the NX pattern
    for its first 20 seconds and then behaves (WC).
    """

    tag = "SW"

    def __init__(self, before: QueryPattern, after: QueryPattern, switch_at: float, clock: Callable[[], float]) -> None:
        self.before = before
        self.after = after
        self.switch_at = switch_at
        self._clock = clock

    def next_question(self, rng: random.Random) -> Question:
        pattern = self.after if self._clock() >= self.switch_at else self.before
        return pattern.next_question(rng)


@dataclass
class ScenarioConfig:
    """Knobs for one attack/defense scenario run."""

    seed: int = 42
    duration: float = 60.0
    #: capacity (QPS) of each resolver->target-ANS channel
    channel_capacity: float = 1000.0
    #: capacity of the forwarder->resolver channel, if a forwarder exists
    rr_channel_capacity: Optional[float] = None
    use_dcc: bool = False
    dcc_signaling: bool = True
    #: DCC on the forwarder too (Figure 9 uses DCC at both hops)
    dcc_on_forwarder: bool = False
    max_poq_depth: int = 100
    max_round: int = 75
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    #: anomaly-kind -> PolicyTemplate overrides (None = paper defaults)
    policy_templates: Optional[Dict] = None
    countdown_threshold: int = 5
    target_ans_count: int = 1
    resolver_count: int = 1
    with_forwarder: bool = False
    #: round-robin client requests across upstream resolvers (large
    #: resolver systems distribute requests over their egress set);
    #: False = primary-with-failover, typical of small forwarders
    forwarder_rotate: bool = False
    #: which clients sit behind the forwarder (names); others talk to
    #: the recursive resolver(s) directly
    forwarded_clients: Optional[List[str]] = None
    ff_fanout: int = 7
    ff_instances: int = 200
    client_attempts: int = 1
    #: swap MOPI-FQ for a Figure 7 baseline scheduler (ablations); the
    #: factory is called once per DCC instance
    scheduler_factory: Optional[Callable[[], object]] = None
    #: wildcard answer TTLs (1 s: cache-bypassing, as in the attacks)
    answer_ttl: int = 1
    #: full resolver configuration override (hardened-resolver cells of
    #: the resilience matrix, the chaos cast); None keeps the vanilla
    #: defaults
    resolver_config: Optional[ResolverConfig] = None
    #: opt into the repro.obs observability subsystem (None = off, the
    #: zero-overhead default; see docs/OBSERVABILITY.md)
    obs: Optional[ObsConfig] = None


@dataclass
class ScenarioResult:
    clients: Dict[str, StubClient]
    #: per-client successful responses per second (Figure 8 metric)
    effective_qps: Dict[str, List[float]]
    #: per-client queries on the resolver->ANS wire per second
    wire_qps: Dict[str, List[float]]
    duration: float
    resolver_stats: List[object]
    ans_queries: int
    events_processed: int

    def success_ratio(self, client: str, since: float, until: float) -> float:
        return self.clients[client].success_ratio(since, until)


class AttackScenario:
    """Builds one Figure 3/Table 2 style scenario on either backend.

    ``backend`` is the clock/fabric pair the cast lives on.  The default
    :class:`~repro.transport.simnet.VirtualBackend` is the simulator every
    figure runs on, and :meth:`run` drives it in virtual time.  A
    :class:`~repro.transport.udp.UdpBackend` puts the same nodes on real
    sockets; its caller starts the fabric and runs its own loop (``repro
    chaos --backend live``).
    """

    def __init__(self, config: ScenarioConfig, backend: Optional[TransportBackend] = None) -> None:
        self.config = config
        if backend is None:
            backend = VirtualBackend(config.seed)
        self.sim = backend.clock
        self.net = backend.fabric
        #: fault-injection surface of the virtual fabric: chaos experiments
        #: schedule outages, partitions, and degradation ramps here before
        #: run().  None on real sockets, where the live chaos orchestrator
        #: plays this role.
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.net) if isinstance(self.net, Network) else None
        )
        self.clients: Dict[str, StubClient] = {}
        self.shims: List[DccShim] = []
        self._client_addr: Dict[str, str] = {}
        #: the reverse map (addresses are unique: Network.attach enforces it)
        self._client_name: Dict[str, str] = {}
        self._wire_series: Dict[str, TimeSeries] = {}
        #: live observability facade, or None when the run is not observed
        self.obs: Optional[Observability] = (
            Observability(config.obs) if config.obs is not None else None
        )
        self._build()
        self._wire_obs()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config

        self.target_ans_addrs = [target_ans_addr(i) for i in range(cfg.target_ans_count)]
        root_zone = build_root_zone({TARGET_ORIGIN: ("ns1.target-domain.", self.target_ans_addrs[0])})
        # Redundant target servers: one NS record + glue per server.
        for i, addr in enumerate(self.target_ans_addrs[1:], start=2):
            root_zone.add_ns(TARGET_ORIGIN, f"ns{i}.target-domain.")
            root_zone.add_a(f"ns{i}.target-domain.", addr)
        root_zone.add_ns(ATTACKER_ORIGIN, "ns1.attacker-com.")
        root_zone.add_a("ns1.attacker-com.", ATTACKER_ANS_ADDR)
        self.root = AuthoritativeServer(ROOT_ADDR, zones=[root_zone])
        self.net.attach(self.root)

        # Target zone (shared content across redundant servers).
        self.target_ans: List[AuthoritativeServer] = []
        for i, addr in enumerate(self.target_ans_addrs):
            zone = build_target_zone(
                TARGET_ORIGIN,
                f"ns{i + 1}" if i else "ns1",
                addr,
                answer_ttl=cfg.answer_ttl,
                negative_ttl=cfg.answer_ttl,
                ff_ttl=cfg.answer_ttl,
            )
            # The vanilla channel cap: ingress RL at the target server.
            # DCC-enabled runs keep it too (DCC stays below it, so it
            # never fires -- exactly the deployment story).
            ans = AuthoritativeServer(
                addr,
                zones=[zone],
                # BIND-RRL-style fixed-window response limiting: first
                # `capacity` responses per second pass, the rest drop.
                ingress_limit=RateLimitConfig(rate=cfg.channel_capacity, mode="window"),
            )
            self.target_ans.append(ans)
            self.net.attach(ans)

        # The apex only: only an FF client queries this zone, so the
        # first one added installs the fan-out (_pattern_for).
        self._attacker_zone = build_ff_attacker_zone(
            ATTACKER_ORIGIN, TARGET_ORIGIN, "ns1", ATTACKER_ANS_ADDR, instances=0
        )
        self._ff_delegated = False
        self.attacker_ans = AuthoritativeServer(ATTACKER_ANS_ADDR, zones=[self._attacker_zone])
        self.net.attach(self.attacker_ans)

        # Recursive resolvers.
        resolver_cfg = cfg.resolver_config or ResolverConfig()
        if cfg.with_forwarder and cfg.rr_channel_capacity is not None and not cfg.use_dcc:
            # Vanilla RR channel cap: ingress RL at the resolvers.
            resolver_cfg = replace(
                resolver_cfg,
                ingress_limit=RateLimitConfig(rate=cfg.rr_channel_capacity, mode="window"),
            )
        self.resolvers: List[RecursiveResolver] = []
        for i in range(cfg.resolver_count):
            resolver = RecursiveResolver(resolver_addr(i), resolver_cfg)
            resolver.add_root_hint("a.root-servers.net.", ROOT_ADDR)
            resolver.egress_tap = self._make_tap()
            self.net.attach(resolver)
            if cfg.use_dcc:
                self._deploy_dcc(resolver, cfg.channel_capacity, self.target_ans_addrs)
            self.resolvers.append(resolver)

        # Optional forwarder in front of the resolvers.
        self.forwarder: Optional[Forwarder] = None
        if cfg.with_forwarder:
            self.forwarder = Forwarder(
                "10.0.2.1",
                ForwarderConfig(
                    upstreams=[r.address for r in self.resolvers],
                    query_timeout=CLIENT_TIMEOUT,
                    rotate=cfg.forwarder_rotate,
                ),
            )
            self.forwarder.egress_tap = self._make_tap()
            self.net.attach(self.forwarder)
            if cfg.use_dcc and cfg.dcc_on_forwarder:
                rr_capacity = cfg.rr_channel_capacity
                self._deploy_dcc(
                    self.forwarder,
                    rr_capacity or cfg.channel_capacity,
                    [r.address for r in self.resolvers] if rr_capacity is not None else [],
                )

    def _deploy_dcc(
        self,
        node: Union[RecursiveResolver, Forwarder],
        capacity: float,
        channels: List[str],
    ) -> None:
        """Wrap ``node`` in a DCC shim; each of ``channels`` runs at ``capacity`` QPS."""
        cfg = self.config
        shim = DccShim(
            node,
            DccConfig(
                scheduler=MopiFqConfig(
                    max_poq_depth=cfg.max_poq_depth,
                    max_round=cfg.max_round,
                    default_channel_rate=capacity * 10,
                ),
                monitor=cfg.monitor,
                policy_templates=cfg.policy_templates,
                signaling=cfg.dcc_signaling,
                countdown_threshold=cfg.countdown_threshold,
                scheduler_factory=cfg.scheduler_factory,
            ),
        )
        for addr in channels:
            shim.set_channel_capacity(addr, capacity, max(1.0, capacity * 0.1))
        self.shims.append(shim)

    def _wire_obs(self) -> None:
        """Hand the live facade to every instrumented component, and
        watch each one's stats block as the counters ``<prefix>.<field>``.

        A single Observability instance observes the whole scenario; the
        track names encode which entity each span/instant belongs to.
        """
        obs = self.obs
        if obs is None:
            return
        obs.attach(self.sim)
        for node in [self.root, self.attacker_ans, *self.target_ans]:
            node.obs = obs
            obs.metrics.watch("auth", node.stats)
        for resolver in self.resolvers:
            resolver.obs = obs
            obs.metrics.watch("resolver", resolver.stats)
            resolver.health.obs = obs
            resolver.health.obs_track = f"resolver:{resolver.address}"
            if resolver.overload is not None:
                obs.metrics.watch("overload", resolver.overload.stats)
        for shim in self.shims:
            shim.attach_obs(obs)

    def _make_tap(self):
        """Per-second wire accounting keyed by attributed client."""
        duration = self.config.duration

        def tap(query: Message, server: str) -> None:
            if server not in self.target_ans_addrs:
                return
            option = query.find_edns(OptionCode.CLIENT_ATTRIBUTION)
            if option is None:
                return
            client_addr = ClientAttribution.decode(option).client
            name = self._addr_to_name(client_addr)
            if name is None:
                return
            series = self._wire_series.get(name)
            if series is None:
                series = TimeSeries(duration)
                self._wire_series[name] = series
            series.add(self.sim.now)

        return tap

    def _addr_to_name(self, address: str) -> Optional[str]:
        name = self._client_name.get(address)
        if name is not None:
            return name
        # Queries attributed to the forwarder belong to whichever of its
        # clients originated them; at the resolver hop we cannot tell
        # (the paper's visibility problem), so they are accounted to the
        # forwarder pseudo-client.
        if self.forwarder is not None and address == self.forwarder.address:
            return "__forwarder__"
        return None

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def add_clients(self, specs: List[ClientSpec]) -> None:
        cfg = self.config
        for i, spec in enumerate(specs):
            behind_forwarder = cfg.with_forwarder and (
                cfg.forwarded_clients is None or spec.name in cfg.forwarded_clients
            )
            if behind_forwarder:
                resolvers = [self.forwarder.address]
            else:
                resolvers = [r.address for r in self.resolvers]
            address = f"10.1.{'9' if spec.is_attacker else '0'}.{i + 1}"
            client = StubClient(
                address,
                self._pattern_for(spec),
                ClientConfig(
                    rate=spec.rate,
                    start=spec.start,
                    stop=min(spec.stop, cfg.duration),
                    resolvers=resolvers,
                    request_timeout=CLIENT_TIMEOUT,
                    max_attempts=cfg.client_attempts,
                ),
            )
            self.net.attach(client)
            self.clients[spec.name] = client
            self._client_addr[spec.name] = address
            self._client_name[address] = spec.name

    def _pattern_for(self, spec: ClientSpec) -> QueryPattern:
        if spec.pattern == "WC":
            return WildcardPattern(TARGET_ORIGIN)
        if spec.pattern == "NX":
            return NxdomainPattern(TARGET_ORIGIN)
        if spec.pattern == "FF":
            cfg = self.config
            if not self._ff_delegated:
                zone = self._attacker_zone
                add_ff_delegations(zone, TARGET_ORIGIN, cfg.ff_instances, cfg.ff_fanout, zone.default_ttl)
                self._ff_delegated = True
            return FanoutPattern(ATTACKER_ORIGIN, cfg.ff_instances)
        if spec.pattern == "NX_THEN_WC":
            switch_at = spec.start + (20.0 / 60.0) * (spec.stop - spec.start)
            return SwitchingPattern(
                NxdomainPattern(TARGET_ORIGIN),
                WildcardPattern(TARGET_ORIGIN),
                switch_at=switch_at,
                clock=lambda: self.sim.now,
            )
        raise ValueError(f"unknown pattern {spec.pattern!r}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, grace: float = 3.0) -> ScenarioResult:
        for client in self.clients.values():
            client.start()
        self.sim.run(until=self.config.duration + grace)
        if self.obs is not None:
            self.obs.finish(self.sim.now)
        effective = {
            name: client.effective_qps_series(self.config.duration)
            for name, client in self.clients.items()
        }
        wire = {name: series.rates() for name, series in self._wire_series.items()}
        return ScenarioResult(
            clients=self.clients,
            effective_qps=effective,
            wire_qps=wire,
            duration=self.config.duration,
            resolver_stats=[r.stats for r in self.resolvers],
            ans_queries=sum(a.stats.queries_received for a in self.target_ans),
            events_processed=self.sim.events_processed,
        )
