"""Scenario materialisation: one :class:`FuzzScenario` -> one sim run.

:func:`run_scenario` builds the whole stack -- zone graph on
authoritative servers, one recursive resolver (optionally wrapped in a
DCC shim), benign clients, an adversary, a fault schedule -- runs it
with SimSan armed, and returns a :class:`FuzzObservations` that the
oracles in :mod:`repro.fuzz.oracles` judge.

Instrumentation rides the probe hooks the components already expose
(``ResolverCache.stale_probe``, ``HealthRegistry.transition_probe``)
plus the clients' per-request ground-truth records, so the run under
observation is byte-identical to an unobserved one: probes append to
lists, never schedule events.

``inject_bug`` re-introduces known-fixed defects on purpose (the
fuzzer's own self-test and the source of the checked-in regression
corpus); replaying a corpus scenario *without* injection demonstrates
the fix.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import sanitize
from repro.dcc.mopifq import MopiFqConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.dnscore.message import Question
from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import RRType
from repro.netsim.faults import FaultInjector, fault_span
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.sanitize import SimSanViolation
from repro.server.authoritative import AuthoritativeServer
from repro.server.health import HealthConfig
from repro.server.overload import OverloadConfig
from repro.server.ratelimit import RateLimitAction, RateLimitConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.cohorts import mount_fluid
from repro.workloads.patterns import (
    FanoutPattern,
    FixedPattern,
    NxdomainPattern,
    QueryPattern,
    WildcardPattern,
)
from repro.workloads.zonegen import (
    DEAD_ADDRESS,
    ZoneGraph,
    build_ff_attacker_zone,
    build_zone_graph,
    graph_server_addr,
    validate_zone_graph,
)

from repro.fuzz.generate import RESOLVER_ADDR
from repro.fuzz.scenario import FuzzScenario

#: bug-injection switches understood by :func:`run_scenario`
KNOWN_BUGS = ("dangling-glueless",)

#: FF adversary topology (outside the ``graph_server_addr`` range)
ATTACKER_ORIGIN = "evil."
ATTACKER_ANS_ADDR = "10.0.40.240"
ADVERSARY_CLIENT_ADDR = "10.1.59.1"

#: liveness drain: virtual seconds past the last client stop by which
#: every pending request must have resolved one way or the other
DRAIN_WINDOW = 30.0

#: virtual seconds after the fault envelope ends before the recovery
#: window opens (hold-downs expire, breakers re-close, retries settle)
FAULT_SETTLE = 2.0

#: ceiling on events per expected client request (the termination
#: oracle's runaway-loop detector; FF amplification plus retries stay
#: far below this)
EVENTS_PER_REQUEST = 1_000
EVENT_CAP_FLOOR = 200_000


class NamePoolPattern(QueryPattern):
    """Benign traffic: a fixed pool of known-resolvable names."""

    tag = "POOL"

    def __init__(self, names: List[Name], rrtype: RRType = RRType.A) -> None:
        if not names:
            raise ValueError("a name pool needs at least one name")
        self.names = list(names)
        self.rrtype = rrtype

    def next_question(self, rng: random.Random) -> Question:
        return Question(rng.choice(self.names), self.rrtype)


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------

@dataclass
class StaleServe:
    """One serve-stale answer: how far past expiry the entry was."""

    name: str
    rrtype: str
    age_past_expiry: float
    window: float


@dataclass
class BreakerTransition:
    """One circuit-breaker state change at an upstream health entry."""

    server: str
    old_state: str
    new_state: str
    at: float


@dataclass
class ClientOutcome:
    """Ground truth for one benign client (adversaries are not judged)."""

    name: str
    zone: str
    requests: int = 0
    successes: int = 0
    timeouts: int = 0
    #: success ratio over the whole traffic window
    success_ratio: float = 0.0
    #: success ratio before the adversary starts (whole window if none)
    clean_ratio: float = 0.0
    #: success ratio while the adversary is active (0 when none)
    attacked_ratio: float = 0.0
    #: success ratio after the fault envelope ends + settle (0 when the
    #: scenario has no faults or the window is empty)
    recovered_ratio: float = 0.0
    pending_after_drain: int = 0


@dataclass
class FuzzObservations:
    """Everything the oracles see about one run."""

    scenario_id: str = ""
    injected_bug: Optional[str] = None
    events_processed: int = 0
    event_cap: int = 0
    event_cap_hit: bool = False
    #: unexpected exception out of build or run (type: message)
    crash: Optional[str] = None
    simsan_violations: List[str] = field(default_factory=list)
    scheduler_errors: List[str] = field(default_factory=list)
    clients: List[ClientOutcome] = field(default_factory=list)
    stale_serves: List[StaleServe] = field(default_factory=list)
    breaker_transitions: List[BreakerTransition] = field(default_factory=list)
    resolver_pending_after_drain: int = 0
    resolver_stats: Dict[str, int] = field(default_factory=dict)
    #: aggregate fluid conservation ledger (empty = no cohorts ran);
    #: offered == hits + upstream + timeouts + backlog up to the
    #: residual, which the conservation oracle bounds
    fluid_ledger: Dict[str, float] = field(default_factory=dict)
    #: the bridge's per-tick state digest ("" = no cohorts ran)
    fluid_digest: str = ""
    fluid_ticks: int = 0

    def to_dict(self) -> Dict:
        from repro.fuzz.serialize import encode_dataclass

        return encode_dataclass(self)

    def digest_fields(self) -> Dict:
        """The determinism surface: everything except free-text crash
        detail (exception reprs can embed addresses)."""
        data = self.to_dict()
        data["crash"] = None if self.crash is None else self.crash.split(":")[0]
        return data


# ----------------------------------------------------------------------
# build + run
# ----------------------------------------------------------------------

def run_scenario(
    scenario: FuzzScenario,
    inject_bug: Optional[str] = None,
    sanitize_run: bool = True,
) -> FuzzObservations:
    """Materialise, run, and observe one scenario.

    Never raises for in-sim failures: SimSan violations, scheduler
    invariant breaks, and unexpected exceptions all land in the returned
    observations for the oracles to judge.
    """
    if inject_bug is not None and inject_bug not in KNOWN_BUGS:
        raise ValueError(f"unknown bug injection {inject_bug!r} (known: {KNOWN_BUGS})")
    obs = FuzzObservations(scenario_id=scenario.scenario_id, injected_bug=inject_bug)
    previous = sanitize.ENABLED
    if sanitize_run:
        sanitize.enable()
    try:
        harness = None
        try:
            harness = _build(scenario, inject_bug)
            _run(scenario, harness, obs)
        except SimSanViolation as violation:
            obs.simsan_violations.append(str(violation))
        except Exception as exc:  # the no-crash oracle's raw material
            obs.crash = f"{type(exc).__name__}: {exc}"
        if harness is not None:
            _collect(scenario, harness, obs)
    finally:
        sanitize.ENABLED = previous
    return obs


class _Harness:
    """The built topology, kept together for the collect phase."""

    __slots__ = ("sim", "net", "injector", "graph", "resolver", "shim", "clients",
                 "bridge")

    def __init__(self) -> None:
        self.sim: Simulator
        self.net: Network
        self.injector: FaultInjector
        self.graph: ZoneGraph
        self.resolver: RecursiveResolver
        self.shim: Optional[DccShim] = None
        self.clients: Dict[str, StubClient] = {}
        #: fluid background mass, when the scenario carries cohorts
        self.bridge = None


def _build(scenario: FuzzScenario, inject_bug: Optional[str]) -> _Harness:
    h = _Harness()
    h.sim = Simulator(seed=scenario.seed)
    h.net = Network(h.sim)
    h.injector = FaultInjector(h.net)

    broken_graph = inject_bug == "dangling-glueless"
    h.graph = build_zone_graph(
        scenario.zones,
        validate=not broken_graph,
        omit_glueless_addresses=broken_graph,
    )
    adversary = scenario.adversary
    zone_addrs = [
        graph_server_addr(i) for i in range(len(scenario.zones))
    ]

    if adversary.strategy == "wc" and adversary.zone in h.graph.zones:
        # "wc" must mean wildcard-covered: install the subtree if the
        # drawn zone spec happened to lack one (deterministic, part of
        # the scenario's meaning, identical on replay).
        zone = h.graph.zones[adversary.zone]
        if not zone.lookup(zone.origin.child("wc").child("probe"), RRType.A).answers:
            zone.add_wildcard_a("wc", "192.0.2.8", ttl=4)

    attacker_zone = None
    if adversary.strategy == "ff" and adversary.zone in h.graph.zones:
        target_zone = h.graph.zones[adversary.zone]
        # FF leaf NS targets live under ff.<target>; a dead-address
        # wildcard there reproduces the paper's amplification setup
        # (queries land on the target's channel, answers go nowhere).
        target_zone.add_wildcard_a("ff", DEAD_ADDRESS, ttl=1)
        attacker_zone = build_ff_attacker_zone(
            ATTACKER_ORIGIN,
            adversary.zone,
            "ns1",
            ATTACKER_ANS_ADDR,
            instances=adversary.ff_instances,
            fanout=adversary.ff_fanout,
        )
        root = h.graph.zones["."]
        root.add_ns(ATTACKER_ORIGIN, f"ns1.{ATTACKER_ORIGIN}")
        root.add_a(f"ns1.{ATTACKER_ORIGIN}", ATTACKER_ANS_ADDR)
        if not broken_graph:
            validate_zone_graph(list(h.graph.zones.values()) + [attacker_zone])

    # Authoritative side: the spec'd zone servers carry the vanilla
    # channel cap (BIND-RRL-style ingress limit); root/infra stay open.
    for addr, zones in h.graph.server_zones().items():
        limit = None
        if addr in zone_addrs:
            limit = RateLimitConfig(
                rate=scenario.dcc.channel_capacity,
                action=RateLimitAction.DROP,
                mode="window",
            )
        h.net.attach(AuthoritativeServer(addr, zones=zones, ingress_limit=limit))
    if attacker_zone is not None:
        h.net.attach(AuthoritativeServer(ATTACKER_ANS_ADDR, zones=[attacker_zone]))

    h.resolver = _build_resolver(scenario)
    h.net.attach(h.resolver)

    if scenario.dcc.enabled:
        dk = scenario.dcc
        h.shim = DccShim(
            h.resolver,
            DccConfig(
                scheduler=MopiFqConfig(
                    max_poq_depth=dk.max_poq_depth,
                    max_round=dk.max_round,
                    pool_capacity=dk.pool_capacity,
                    default_channel_rate=dk.channel_capacity * 10,
                ),
                signaling=dk.signaling,
            ),
        )
        for addr in zone_addrs:
            h.shim.set_channel_capacity(
                addr, dk.channel_capacity, max(1.0, dk.channel_capacity * 0.1)
            )

    for spec in scenario.faults:
        h.injector.add(spec)

    for i, spec in enumerate(scenario.clients):
        pool = h.graph.resolvable.get(spec.zone, [])[: max(1, spec.pool_size)]
        if not pool:
            # Degenerate zone spec (no leaves, no chain): query the apex.
            pool = [h.graph.zones[spec.zone].origin] if spec.zone in h.graph.zones else [ROOT]
        client = StubClient(
            f"10.1.50.{i + 1}",
            NamePoolPattern(pool),
            ClientConfig(
                rate=spec.rate,
                start=spec.start,
                stop=min(spec.stop, scenario.duration),
                resolvers=[RESOLVER_ADDR],
                request_timeout=scenario.client_timeout,
                max_attempts=scenario.client_attempts,
            ),
        )
        h.net.attach(client)
        h.clients[spec.name] = client

    if adversary.strategy != "none":
        attacker = StubClient(
            ADVERSARY_CLIENT_ADDR,
            _adversary_pattern(adversary, h.graph),
            ClientConfig(
                rate=adversary.rate,
                start=adversary.start,
                stop=min(adversary.stop, scenario.duration),
                resolvers=[RESOLVER_ADDR],
                request_timeout=scenario.client_timeout,
                max_attempts=1,
            ),
        )
        h.net.attach(attacker)
        h.clients["__adversary__"] = attacker

    if scenario.fluid_cohorts:
        # The default generator never draws cohorts, so only
        # explicitly-fluid scenarios ever take this path.
        h.bridge = mount_fluid(
            h.sim, scenario.fluid_cohorts, h.resolver, h.shim,
            scenario.dcc.channel_capacity, stop_at=scenario.duration + scenario.grace,
        )
    return h


def _build_resolver(scenario: FuzzScenario) -> RecursiveResolver:
    rk = scenario.resolver
    config = ResolverConfig(
        qname_minimization=rk.qname_minimization,
        serve_stale_window=rk.serve_stale_window,
        health=HealthConfig(
            mode=rk.health_mode,
            base_timeout=rk.query_timeout,
            failure_threshold=rk.failure_threshold,
        ),
        overload=(
            OverloadConfig(
                high_watermark=rk.high_watermark,
                low_watermark=min(rk.low_watermark, rk.high_watermark),
            )
            if rk.overload
            else None
        ),
    )
    from repro.workloads.zonegen import GRAPH_ROOT_ADDR

    resolver = RecursiveResolver(RESOLVER_ADDR, config)
    resolver.add_root_hint("a.root-servers.net.", GRAPH_ROOT_ADDR)
    return resolver


def _adversary_pattern(adversary, graph: ZoneGraph) -> QueryPattern:
    zone = adversary.zone
    if adversary.strategy == "nx":
        return NxdomainPattern(zone)
    if adversary.strategy == "wc":
        return WildcardPattern(zone)
    if adversary.strategy == "chain":
        # Hammer the CNAME-chasing path: the chain head re-resolves on
        # every TTL lapse (generated chains carry short TTLs); zones
        # without a chain degrade to an apex-hammering fixed pattern.
        origin = graph.zones[zone].origin if zone in graph.zones else ROOT
        names = graph.resolvable.get(zone, [])
        head = next((n for n in names if str(n).startswith("c0.")), None)
        return FixedPattern(head if head is not None else origin)
    if adversary.strategy == "ff":
        return FanoutPattern(ATTACKER_ORIGIN, adversary.ff_instances)
    raise ValueError(f"unknown adversary strategy {adversary.strategy!r}")


def _event_cap(scenario: FuzzScenario) -> int:
    expected = sum(
        max(0.0, min(spec.stop, scenario.duration) - spec.start) * spec.rate
        for spec in scenario.clients
    )
    adversary = scenario.adversary
    if adversary.strategy != "none":
        expected += max(0.0, min(adversary.stop, scenario.duration) - adversary.start) * adversary.rate
    return max(EVENT_CAP_FLOOR, int(expected) * EVENTS_PER_REQUEST)


def _run(scenario: FuzzScenario, h: _Harness, obs: FuzzObservations) -> None:
    rk = scenario.resolver
    h.resolver.cache.stale_probe = lambda name, rrtype, age: obs.stale_serves.append(
        StaleServe(str(name), rrtype.name, age, rk.serve_stale_window)
    )
    h.resolver.health.transition_probe = (
        lambda server, old, new, now: obs.breaker_transitions.append(
            BreakerTransition(server, old.value, new.value, now)
        )
    )
    for client in h.clients.values():
        client.start()
    if h.bridge is not None:
        h.bridge.start()
    obs.event_cap = _event_cap(scenario)
    h.sim.run(until=scenario.duration + scenario.grace, max_events=obs.event_cap)
    # Liveness drain: traffic has stopped; anything still pending after
    # a generous window is a stuck request, not a slow one.
    if h.sim.events_processed < obs.event_cap:
        h.sim.run(
            until=scenario.duration + DRAIN_WINDOW,
            max_events=obs.event_cap - h.sim.events_processed,
        )


def _collect(scenario: FuzzScenario, h: _Harness, obs: FuzzObservations) -> None:
    obs.events_processed = h.sim.events_processed
    obs.event_cap_hit = bool(obs.event_cap) and h.sim.events_processed >= obs.event_cap
    obs.resolver_pending_after_drain = len(h.resolver._pending_requests)
    obs.resolver_stats = {
        name: value
        for name, value in dataclasses.asdict(h.resolver.stats).items()
        if isinstance(value, int)
    }
    if h.shim is not None:
        try:
            h.shim.scheduler.check_invariants()
        except AssertionError as exc:
            obs.scheduler_errors.append(str(exc))
    if h.bridge is not None:
        obs.fluid_ledger = h.bridge.ledger()
        obs.fluid_digest = h.bridge.digest()
        obs.fluid_ticks = h.bridge.ticks

    adversary = scenario.adversary
    attacked = adversary.strategy != "none"
    span = fault_span(scenario.faults)
    for spec in scenario.clients:
        client = h.clients.get(spec.name)
        if client is None:
            continue
        stop = min(spec.stop, scenario.duration)
        clean_until = min(adversary.start, stop) if attacked else stop
        recovered = 0.0
        if span is not None:
            recovery_from = span[1] + FAULT_SETTLE
            if recovery_from < stop:
                recovered = client.success_ratio(recovery_from, stop)
        outcome = ClientOutcome(
            name=spec.name,
            zone=spec.zone,
            requests=len(client.records),
            successes=client.records.successes(),
            timeouts=client.records.timed_out.count(1),
            success_ratio=client.success_ratio(spec.start, stop),
            clean_ratio=client.success_ratio(spec.start, clean_until),
            attacked_ratio=(
                client.success_ratio(adversary.start, stop) if attacked else 0.0
            ),
            recovered_ratio=recovered,
            pending_after_drain=len(client._pending),
        )
        obs.clients.append(outcome)
    attacker = h.clients.get("__adversary__")
    if attacker is not None:
        obs.clients.append(
            ClientOutcome(
                name="__adversary__",
                zone=adversary.zone,
                requests=len(attacker.records),
                successes=attacker.records.successes(),
                timeouts=attacker.records.timed_out.count(1),
                success_ratio=attacker.success_ratio(adversary.start, scenario.duration),
                clean_ratio=0.0,
                attacked_ratio=0.0,
                pending_after_drain=len(attacker._pending),
            )
        )
