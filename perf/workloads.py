"""The six named workloads of the perf ledger.

Each workload is a function ``(seed, params, harness) -> Outcome`` that
builds its part of ``src/repro`` through public constructors, calls
``harness.begin()`` right before the first timed operation, ``harness.lap()``
after each slice of the timed phase and ``harness.end()`` after the last, and
only then computes its outcome digest and output checks.  ``params(name, seconds)`` is the full, pinned
parameter set: work is sized from ``--seconds`` by fixed per-second
constants, so the same ``(seed, seconds)`` always gives the same inputs and
-- on the four deterministic workloads -- the same digest.

Why each workload exists, and which layers it bypasses, is in
``perf/README.md``.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import gc
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.dcc.monitor import AnomalyMonitor, ClientVerdict, MonitorConfig
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.dcc.policing import PolicyEngine
from repro.dcc.shim import DccConfig, DccShim
from repro.dcc.state import DccStateTables
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RCode, RRType
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.experiments.scale import ScaleConfig, ScaleScenario
from repro.netsim.node import Node
from repro.obs import ObsConfig
from repro.server.authoritative import AuthoritativeServer
from repro.server.health import HealthConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.transport.engine import EngineConfig, Outcome as EngineOutcome, QueryEngine, Verdict
from repro.transport.udp import UdpBackend
from repro.workloads.schedule import table2_clients
from repro.workloads.zonegen import build_root_zone, build_target_zone

from perf.refclock import REFERENCE_S, probe
from perf.trace import Tracer

DETERMINISTIC = ("ctrl_path", "sim_nx_dcc", "sim_ff_vanilla", "scale_hybrid")
LIVE = ("live_wc_dcc", "live_pool_bare")
NAMES = ("ctrl_path", "sim_nx_dcc", "sim_ff_vanilla", "live_wc_dcc", "live_pool_bare", "scale_hybrid")

#: layers a workload must not enter at all (span-name prefixes; checked on
#: the traced pass).  An optimisation of such a layer predicts *no change*
#: on that workload.
ZERO_CALL_LAYERS: Dict[str, tuple] = {
    "ctrl_path": ("netsim", "dnscore", "server", "transport", "fluid", "workloads"),
    "sim_nx_dcc": ("transport", "fluid"),
    "sim_ff_vanilla": ("dcc", "transport", "fluid"),
    "live_wc_dcc": ("netsim", "fluid", "workloads"),
    "live_pool_bare": ("dcc", "netsim", "fluid", "workloads"),
    "scale_hybrid": ("transport",),
}


def params(name: str, seconds: float) -> Dict[str, Any]:
    """The pinned parameter set of one workload for a run of ``seconds``.

    The per-second constants were calibrated on the 2-core runner so that
    the timed phase of the seed takes about ``seconds``.
    """
    if name == "ctrl_path":
        return {"loop": "closed, 1 caller", "clients": 100_000, "servers": 100_000, "burst": 64,
                "bursts_per_slice": 32,
                "iterations": int(50_000 * seconds) // 2048 * 2048, "virtual_step_s": 0.0005,
                "max_poq_depth": 100, "max_round": 75, "pool_capacity": 100_000,
                "channel_rate_qps": 10_000.0}
    if name in ("sim_nx_dcc", "sim_ff_vanilla"):
        nx = name == "sim_nx_dcc"
        return {"loop": "open, virtual time", "scenario": "nxdomain" if nx else "amplification",
                "use_dcc": nx, "scale": round(0.05 * seconds, 6), "channel_qps": 1000.0,
                "virtual_duration_s": round(60.0 * 0.05 * seconds, 6), "grace_s": 3.0,
                "max_poq_depth": 100, "max_round": 75, "ff_instances": 200, "answer_ttl_s": 1,
                "slice_virtual_s": 0.1}
    if name in LIVE:
        shared = {"loop": "open, 500 QPS", "link": "host loopback (127.0.0.1 UDP)", "engines": 2,
                  "rate_qps_per_engine": 250.0, "gap_jitter": [0.6, 1.4], "warmup_s": 2.0,
                  "timed_s": float(seconds), "retries": 0, "deadline_s": 2.0, "inflight_capacity": 4096,
                  "catchup_factor": 1.5,
                  "slice_s": 0.05}
        if name == "live_wc_dcc":
            return {**shared, "use_dcc": True, "names": "unique q<i>c<k>.wc.target-domain.",
                    "answer_ttl_s": 1, "channel_qps": 5000.0, "channel_burst": 500.0,
                    "max_poq_depth": 8192, "max_round": 4096}
        return {**shared, "use_dcc": False, "names": "pool p<j>.wc.target-domain.",
                "pool_size": 256, "answer_ttl_s": 3600}
    if name == "scale_hybrid":
        return {"loop": "open, virtual time", "mode": "hybrid", "clients": 1_000_000,
                "virtual_duration_s": round(3.125 * seconds, 6), "tick_s": 0.1, "grace_s": 2.0,
                "slice_virtual_s": 0.1}
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Outcome:
    """What one pass of one workload produced."""

    #: client queries brought to a verdict in the timed phase
    queries: int
    #: operations attempted / left without a correct verdict (expected 0:
    #: a simulated client timing out under attack *is* a verdict, and is
    #: what ``success_frac`` reports)
    attempted: int
    failed: int
    success_frac: float
    #: sha256 over the outcome; None on the live workloads
    digest: Optional[str]
    #: live workloads only; the batch workloads report the harness's
    #: reference ms per 1000 queries
    latency_p50_ms: Optional[float] = None
    #: failed output checks, one line each (empty = all passed)
    problems: List[str] = field(default_factory=list)
    #: per-layer numbers only the workload can see (program counters)
    layer: Dict[str, float] = field(default_factory=dict)


class SetupOnly(Exception):
    """Raised out of a workload once its set-up has been timed."""


class Harness:
    """Marks set-up, the timed phase and its slices in one child process.

    The timed phase runs from ``begin()`` to ``end()``; ``lap(queries)``
    closes a slice of it.  The runner's speed wanders by a factor of up to
    1.7 within a run, so a reference probe runs between slices and a slice
    counts in *reference seconds*, ``seconds * REFERENCE_S / probe seconds``
    (``perf/refclock.py``).  A slice is kept as ``(wall seconds, CPU seconds,
    client queries, probe seconds)``, the probe being the mean of the probes
    on either side of it.
    """

    def __init__(self, started_at: float, tracer: Optional[Tracer] = None, obs: bool = False,
                 setup_only: bool = False) -> None:
        self.started_at = started_at  # epoch seconds at child start
        self.tracer = tracer
        self.obs = obs
        self.setup_only = setup_only
        self.setup_s = 0.0
        self.slices: List[tuple] = []
        #: real seconds from begin() to end(), probes included
        self.elapsed_s = 0.0
        self._set_up_at = 0.0

    def setup_done(self) -> None:
        """Set-up is over (tables warm, sockets bound): stop its clock."""
        if not self._set_up_at:
            self.setup_s = time.time() - self.started_at
            if self.setup_only:
                raise SetupOnly
            # The collector stays on, but what set-up built (ctrl_path: a
            # million table objects) is moved out of its reach: whether a
            # 0.3 s full collection happens to fall into a run is noise.
            gc.collect()
            gc.freeze()
            self._set_up_at = time.perf_counter()

    def begin(self) -> float:
        """The first timed operation follows; returns seconds since set-up
        ended (the live warm-up)."""
        self.setup_done()
        waited = time.perf_counter() - self._set_up_at
        self._probe = probe()
        if self.tracer is not None:
            self.tracer.begin()
        self._began = self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return waited

    def lap(self, queries: int) -> None:
        """Close the slice that brought ``queries`` client queries to a
        verdict (or, on an open loop, issued them)."""
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        after = probe()
        self.slices.append((wall, cpu, queries, (self._probe + after) / 2))
        self._probe = after
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def end(self, queries: Optional[int] = None) -> None:
        """The timed phase is over; ``queries`` closes a last open slice."""
        if queries is not None:
            self.lap(queries)
        self.elapsed_s = time.perf_counter() - self._began
        if self.tracer is not None:
            self.tracer.end()

    # -- read-out -------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Raw wall seconds of the timed slices (probes excluded)."""
        return sum(entry[0] for entry in self.slices)

    def reference_s(self, column: int) -> float:
        """The timed phase's wall (column 0) or CPU (column 1) time in
        reference seconds."""
        return sum(entry[column] * REFERENCE_S / entry[3] for entry in self.slices)

    def reference_ms_per_thousand_queries(self) -> float:
        """The batch workloads' ``latency_p50_ms``: the median over slices of
        the reference ms a slice spent per 1000 client queries."""
        costs = [wall * REFERENCE_S / reference * 1e6 / queries
                 for wall, _cpu, queries, reference in self.slices if queries > 0]
        return statistics.median(costs) if costs else 0.0


def _sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def _run_in_slices(harness: Harness, sim: Any, until: float, slice_s: float,
                   issued: Callable[[], float]) -> float:
    """Advance ``sim`` to virtual time ``until`` in slices of ``slice_s``
    virtual seconds, closing a harness slice after each; returns ``issued()``
    as of the last slice.  ``Simulator.run(until=...)`` only pauses the event
    loop, so the event order is that of one uninterrupted run."""
    before = issued()
    for k in range(1, int(math.ceil(until / slice_s)) + 1):
        sim.run(until=min(k * slice_s, until))
        now = issued()
        harness.lap(now - before)
        before = now
    return before


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# ctrl_path: the Figure 10/11 DCC control loop alone
# ----------------------------------------------------------------------
def ctrl_path(seed: int, p: Dict[str, Any], harness: Harness) -> Outcome:
    rng = random.Random(seed)
    scheduler = MopiFq(MopiFqConfig(
        max_poq_depth=p["max_poq_depth"], max_round=p["max_round"],
        pool_capacity=p["pool_capacity"], default_channel_rate=p["channel_rate_qps"],
    ))
    monitor = AnomalyMonitor(MonitorConfig())
    engine = PolicyEngine()
    tables = DccStateTables()
    n_clients, n_servers = p["clients"], p["servers"]
    clients = [f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}" for i in range(n_clients)]
    servers = [f"172.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}" for i in range(n_servers)]
    # The paper starts collecting once the expected entity count is tracked.
    now = 0.0
    for client in clients:
        monitor.record_request(client, now)
    for server in servers:
        scheduler.channel_bucket(server)

    burst, step = p["burst"], p["virtual_step_s"]
    rejected = spurious_empty = 0
    order: List[int] = []
    burst_s: List[float] = []
    request_id = 0
    noerror = RCode.NOERROR
    per_slice = p["bursts_per_slice"]
    tracer = harness.tracer
    harness.begin()
    for index in range(1, p["iterations"] // burst + 1):
        started = time.perf_counter()
        for _ in range(burst):
            if tracer is not None:
                tracer.new_query()
            now += step
            client = clients[rng.randrange(n_clients)]
            server = servers[rng.randrange(n_servers)]
            request_id += 1
            state = tables.open_request(client, request_id, now)
            engine.check(client, now)
            monitor.record_query(client, now)
            state.queries_attributed += 1
            status, _evicted = scheduler.enqueue(client, server, request_id, now)
            if not status.ok:
                rejected += 1
                tables.close_request(client, request_id)
        for _ in range(burst):
            item = scheduler.dequeue(now)
            if item is None:
                # every channel has tokens here, so an empty dequeue with
                # messages queued is a scheduler fault
                if scheduler.total_depth:
                    spurious_empty += 1
                continue
            monitor.record_answer(item.source, noerror, now)
            tables.close_request(item.source, item.payload)
            order.append(item.payload)
        burst_s.append(time.perf_counter() - started)
        if index % per_slice == 0:
            harness.lap(per_slice * burst)
    harness.end()

    problems: List[str] = []
    stats = scheduler.stats
    if stats.enqueued != stats.dequeued + stats.evicted + scheduler.total_depth:
        problems.append(
            f"conservation: enqueued {stats.enqueued} != dequeued {stats.dequeued} "
            f"+ evicted {stats.evicted} + queued {scheduler.total_depth}")
    if len(order) != stats.dequeued:
        problems.append(f"dequeue log holds {len(order)} of {stats.dequeued} messages")
    try:
        scheduler.check_invariants()
    except AssertionError as exc:
        problems.append(f"MopiFq.check_invariants: {exc}")
    attempted = request_id
    failed = rejected + spurious_empty
    per_op_s = [value / burst for value in burst_s]
    return Outcome(
        queries=attempted, attempted=attempted, failed=failed,
        success_frac=1.0 - failed / attempted,
        digest=_sha(order), problems=problems,
        layer={
            "dcc.ctrl.op_p50_us": statistics.median(per_op_s) * 1e6,
            "dcc.ctrl.op_p99_us": _quantile(per_op_s, 0.99) * 1e6,
        },
    )


# ----------------------------------------------------------------------
# sim_nx_dcc / sim_ff_vanilla: the packet simulator
# ----------------------------------------------------------------------
def _packet_layer(scenario: AttackScenario, requests: int) -> Dict[str, float]:
    """The packet path's own counters, as per-layer numbers."""
    net = scenario.net.stats
    resolvers = [resolver.stats for resolver in scenario.resolvers]
    received = sum(stats.requests_received for stats in resolvers)
    sent = sum(stats.queries_sent for stats in resolvers)
    lost = net.messages_lost + net.messages_cut + net.messages_dropped_down + net.messages_unroutable
    return {
        "netsim.sim.events": scenario.sim.events_processed,
        "netsim.link.lost_frac": lost / max(net.messages_sent, 1),
        "server.resolver.requests": received,
        "server.resolver.upstream_per_request": sent / max(received, 1),
        "server.resolver.retry_frac": sum(stats.query_retries for stats in resolvers) / max(sent, 1),
        "server.authoritative.queries": sum(
            auth.stats.queries_received for auth in (scenario.root, scenario.attacker_ans, *scenario.target_ans)),
        "workloads.clients.requests": requests,
    }


def _sim(seed: int, p: Dict[str, Any], harness: Harness) -> Outcome:
    scale = p["scale"]
    scenario = AttackScenario(ScenarioConfig(
        seed=seed, duration=p["virtual_duration_s"], channel_capacity=p["channel_qps"],
        use_dcc=p["use_dcc"], monitor=paper_monitor_config(time_scale=scale),
        policy_templates=paper_policy_templates(time_scale=scale),
        max_poq_depth=p["max_poq_depth"], max_round=p["max_round"],
        ff_instances=p["ff_instances"], answer_ttl=p["answer_ttl_s"],
        obs=ObsConfig() if harness.obs else None,
    ))
    scenario.add_clients(table2_clients(p["scenario"], time_scale=scale))
    if harness.tracer is not None:
        for resolver in scenario.resolvers:
            harness.tracer.wrap_hooks(resolver)
    sim_clients = list(scenario.clients.values())
    harness.begin()
    for client in sim_clients:
        client.start()

    def issued() -> int:
        return sum(len(client.records) for client in sim_clients)

    done = _run_in_slices(harness, scenario.sim, p["virtual_duration_s"], p["slice_virtual_s"], issued)
    result = scenario.run(grace=p["grace_s"])
    harness.end(issued() - done)

    problems: List[str] = []
    per_client: Dict[str, Dict[str, int]] = {}
    unresolved = 0
    benign_sent = benign_ok = 0
    for name, client in scenario.clients.items():
        records = client.records
        ok = sum(1 for r in records if r.success)
        timed_out = sum(1 for r in records if r.timed_out)
        unresolved += sum(1 for r in records if r.completed_at is None and not r.timed_out)
        per_client[name] = {"sent": len(records), "success": ok, "timeout": timed_out}
        if name != "attacker":
            benign_sent += len(records)
            benign_ok += ok
    requests = sum(entry["sent"] for entry in per_client.values())

    shims = scenario.shims
    digest = _sha({
        "events": result.events_processed,
        "clients": per_client,
        "effective_qps": result.effective_qps,
        "resolvers": [dataclasses.asdict(r.stats) for r in scenario.resolvers],
        "auths": [dataclasses.asdict(a.stats) for a in scenario.target_ans],
        "shims": [dataclasses.asdict(s.stats) for s in shims],
        "schedulers": [dataclasses.asdict(s.scheduler.stats) for s in shims],
    })

    duration = p["virtual_duration_s"]
    if p["use_dcc"]:
        verdict = shims[0].monitor.verdict(scenario.clients["attacker"].address)
        if verdict is not ClientVerdict.CONVICTED:
            problems.append(f"shape: attacker ends {verdict.value}, expected convicted")
        for name in ("medium", "light"):
            ratio = scenario.clients[name].success_ratio()
            if ratio < 0.95:
                problems.append(f"shape: {name} success {ratio:.3f} < 0.95 under DCC")
        ratio = scenario.clients["attacker"].success_ratio()
        if ratio > 0.30:
            problems.append(f"shape: attacker success {ratio:.3f} > 0.30 under DCC")
    else:
        ratio = scenario.clients["medium"].success_ratio(duration * 20 / 60, duration * 50 / 60)
        if ratio > 0.50:
            problems.append(f"shape: medium success {ratio:.3f} > 0.50 in the attack phase of the vanilla run")

    return Outcome(
        queries=requests - unresolved, attempted=requests, failed=unresolved,
        success_frac=benign_ok / max(benign_sent, 1),
        digest=digest, problems=problems, layer=_packet_layer(scenario, requests),
    )


# ----------------------------------------------------------------------
# scale_hybrid: fluid cohorts coupled to the packet path
# ----------------------------------------------------------------------
def scale_hybrid(seed: int, p: Dict[str, Any], harness: Harness) -> Outcome:
    scenario = ScaleScenario(
        ScaleConfig(seed=seed, clients=p["clients"], duration=p["virtual_duration_s"],
                    tick=p["tick_s"], grace=p["grace_s"]),
        p["mode"],
    )
    if harness.tracer is not None:
        harness.tracer.wrap_hooks(scenario.resolver)
    packet = scenario.scenario.clients
    bridge = scenario.bridge

    def issued() -> float:
        return (sum(len(client.records) for client in packet.values())
                + sum(len(client.records) for client in scenario.materializer.all_clients)
                + bridge.ledger()["offered"])

    harness.begin()
    for client in packet.values():
        client.start()
    done = _run_in_slices(harness, scenario.scenario.sim, p["virtual_duration_s"], p["slice_virtual_s"], issued)
    result = scenario.run()
    harness.end(issued() - done)

    problems: List[str] = []
    ledger = result.ledger
    if abs(ledger["residual"]) >= 1e-6:
        problems.append(f"fluid ledger residual {ledger['residual']!r}")
    attacker_addr = scenario.scenario.clients["attacker"].address
    if result.verdicts.get(attacker_addr) != ClientVerdict.CONVICTED.value:
        problems.append(f"shape: attacker ends {result.verdicts.get(attacker_addr)}, expected convicted")

    packet_clients = list(scenario.scenario.clients.values()) + list(scenario.materializer.all_clients)
    records = [r for client in packet_clients for r in client.records]
    unresolved = sum(1 for r in records if r.completed_at is None and not r.timed_out)
    offered = ledger["offered"]
    attempted = len(records) + int(offered)
    return Outcome(
        queries=attempted - unresolved, attempted=attempted, failed=unresolved,
        success_frac=1.0 - ledger["timeouts"] / offered,
        digest=result.digest, problems=problems,
        layer={
            **_packet_layer(scenario.scenario, len(records)),
            "fluid.bridge.ticks": bridge.ticks,
            "fluid.bridge.client_updates": bridge.ticks * bridge.client_count(),
            "fluid.promote.promotions": result.promotions,
            "fluid.promote.demotions": result.demotions,
            "fluid.bridge.ledger_residual": abs(ledger["residual"]),
        },
    )


# ----------------------------------------------------------------------
# live_wc_dcc / live_pool_bare: real UDP sockets on the host loopback
# ----------------------------------------------------------------------
TARGET_ORIGIN = "target-domain."
ROOT_ADDR = "10.0.0.1"
TARGET_ADDR = "10.0.3.1"
RESOLVER_ADDR = "10.0.1.1"
WILDCARD_ADDRESS = "192.0.2.10"


class LoadClient(Node):
    """An open-loop client on the public ``QueryEngine``.

    Queries are due at absolute times (cumulative seeded gaps).  ``samples``
    holds one ``(due, lateness, latency or None, ok, verdict time)`` tuple per
    query: ``lateness`` is how long after it was due the generator issued it,
    ``latency`` runs from then to the verdict.
    """

    def __init__(self, address: str, resolver: str, make_name: Callable[[int], Name],
                 rate: float, total: int, jitter: List[float], catchup_factor: float,
                 config: EngineConfig, on_finished: Callable[[], None]) -> None:
        super().__init__(address)
        self._resolver = resolver
        self._make_name = make_name
        self._gap = 1.0 / rate
        self._catchup_gap = self._gap / catchup_factor
        self._jitter = jitter
        self._total = total
        self._config = config
        self._on_finished = on_finished
        self._due = 0.0
        self.sent = 0
        self.engine: Optional[QueryEngine] = None
        self.samples: List[tuple] = []
        self.bad_answers: List[str] = []

    def start(self) -> None:
        self.engine = QueryEngine(self.sim, self._transmit, self._config)
        self._schedule_next()

    def _schedule_next(self) -> None:
        self._due += self._gap * self.sim.rng(f"client.{self.address}.gaps").uniform(*self._jitter)
        # After a stall of the host the overdue queries go out at a bounded
        # multiple of the rate, not in one burst: a burst overflows the
        # resolver's socket buffer and reads as timeouts the program had no
        # part in.  (How late they went out is reported as lateness.)
        at = max(self._due, self.sim.now + self._catchup_gap) if self.sim.now > self._due else self._due
        self.sim.schedule_at(at, self._fire, self._due)

    def _fire(self, due: float) -> None:
        lateness = self.sim.now - due
        index = self.sent
        self.sent += 1
        self.engine.lookup(
            self._make_name(index), RRType.A, self._resolver,
            lambda outcome: self._on_outcome(outcome, due, lateness),
        )
        if self.sent < self._total:
            self._schedule_next()

    def _transmit(self, message: Any, server: str) -> None:
        self.send(server, message)

    def _on_outcome(self, outcome: EngineOutcome, due: float, lateness: float) -> None:
        ok = outcome.verdict is Verdict.ANSWERED and outcome.rcode == "NOERROR"
        if ok:
            rrset = outcome.response.answer_rrset(RRType.A)
            addresses = [r.rdata for r in rrset.records] if rrset is not None else []
            if addresses != [AData(WILDCARD_ADDRESS)]:
                ok = False
                self.bad_answers.append(f"{outcome.qname}: {addresses!r}")
        now = self.sim.now
        latency = now - due - lateness if outcome.verdict is Verdict.ANSWERED else None
        self.samples.append((due, lateness, latency, ok, now))
        if self.finished:
            self._on_finished()

    def receive(self, message: Any, src: str) -> None:
        if message.is_response and self.engine is not None:
            self.engine.deliver(message, src)

    @property
    def finished(self) -> bool:
        return self.sent >= self._total and len(self.samples) >= self.sent


def _live(seed: int, p: Dict[str, Any], harness: Harness) -> Outcome:
    return asyncio.run(_live_async(seed, p, harness))


async def _live_async(seed: int, p: Dict[str, Any], harness: Harness) -> Outcome:
    backend = UdpBackend(seed=seed)
    root = AuthoritativeServer(ROOT_ADDR, zones=[
        build_root_zone({TARGET_ORIGIN: ("ns1.target-domain.", TARGET_ADDR)})])
    target = AuthoritativeServer(TARGET_ADDR, zones=[build_target_zone(
        TARGET_ORIGIN, "ns1", TARGET_ADDR, wildcard_address=WILDCARD_ADDRESS,
        answer_ttl=p["answer_ttl_s"])])
    resolver = RecursiveResolver(RESOLVER_ADDR, ResolverConfig(
        max_retries=2,
        health=HealthConfig(mode="adaptive", base_timeout=0.3, rto_min=0.1, rto_max=2.0,
                            failure_threshold=0),
    ))
    resolver.add_root_hint("a.root-servers.net.", ROOT_ADDR)
    if p["use_dcc"]:
        # Queues deep enough that a stall of the (shared) host, which hands
        # the shim a burst, cannot turn into rejected queries.
        shim = DccShim(resolver, DccConfig(scheduler=MopiFqConfig(
            max_poq_depth=p["max_poq_depth"], max_round=p["max_round"],
            default_channel_rate=p["channel_qps"] * 10)))
        shim.set_channel_capacity(TARGET_ADDR, p["channel_qps"], p["channel_burst"])
        if harness.tracer is not None:
            harness.tracer.wrap_hooks(resolver)

    warmup, timed = p["warmup_s"], p["timed_s"]
    rate = p["rate_qps_per_engine"]
    total = int(rate * (warmup + timed))
    engine_config = EngineConfig(retries=p["retries"], deadline=p["deadline_s"],
                                 inflight_capacity=p["inflight_capacity"])
    pool = p.get("pool_size")
    picks = random.Random(seed)
    clients: List[LoadClient] = []
    all_finished = asyncio.Event()

    def on_finished() -> None:
        if all(client.finished for client in clients):
            all_finished.set()

    for k in range(p["engines"]):
        if pool:
            # one pass over the pool first, so the warm-up leaves every
            # name cached whatever the seed
            indices = list(range(k, pool, p["engines"])) + [picks.randrange(pool) for _ in range(total)]
            make_name = lambda i, indices=indices: Name.from_text(f"p{indices[i]}.wc.{TARGET_ORIGIN}")
        else:
            make_name = lambda i, k=k: Name.from_text(f"q{i}c{k}.wc.{TARGET_ORIGIN}")
        clients.append(LoadClient(f"10.0.9.{k + 1}", RESOLVER_ADDR, make_name, rate, total,
                                  p["gap_jitter"], p["catchup_factor"], engine_config, on_finished))
    for node in (root, target, resolver, *clients):
        backend.attach(node)
    await backend.start()
    try:
        loop_errors: List[str] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(str(context.get("exception") or context.get("message"))))
        harness.setup_done()

        fabric_stats = backend.fabric.stats
        marks: Dict[str, float] = {}

        clock = backend.clock
        lap_times: List[float] = []

        def verdicts() -> int:
            return sum(len(client.samples) for client in clients)

        def begin_timed() -> None:
            marks["sent"] = fabric_stats.messages_sent
            marks["verdicts"] = verdicts()
            marks["warmup_s"] = harness.begin()
            clock.schedule(p["slice_s"], lap)

        def lap() -> None:
            if all_finished.is_set():
                return
            now = verdicts()
            harness.lap(now - marks["verdicts"])
            marks["verdicts"] = now
            lap_times.append(clock.now)
            clock.schedule(p["slice_s"], lap)

        for client in clients:
            client.start()
        clock.schedule_at(warmup, begin_timed)
        try:
            await asyncio.wait_for(all_finished.wait(), warmup + timed + p["deadline_s"] + 1.0)
        except asyncio.TimeoutError:
            pass  # reported below: some client is not finished
        harness.end(verdicts() - marks.get("verdicts", 0))

        problems: List[str] = []
        for client in clients:
            problems.extend(f"liveness: {client.address}: {item}"
                            for item in client.engine.liveness_violations(grace=1.0))
            if not client.finished:
                problems.append(f"{client.address}: {client.sent} sent, {len(client.samples)} verdicts")
            problems.extend(f"wrong answer: {item}" for item in client.bad_answers[:5])
        problems.extend(f"event-loop error: {error}" for error in loop_errors)
        if fabric_stats.decode_errors:
            problems.append(f"{fabric_stats.decode_errors} datagram decode errors")

        samples = [s for client in clients for s in client.samples if s[0] >= warmup]
        attempted = sum(client.sent for client in clients) - sum(
            1 for client in clients for s in client.samples if s[0] < warmup)
        ok = sum(1 for s in samples if s[3])
        from_due = [(s[1] + s[2]) * 1e3 for s in samples if s[2] is not None]
        # each latency in reference ms: scaled by the probe of the slice
        # its verdict fell into
        refs = [entry[3] for entry in harness.slices]
        ref_latency = [s[2] * 1e3 * REFERENCE_S / refs[min(bisect.bisect_left(lap_times, s[4]), len(refs) - 1)]
                       for s in samples if s[2] is not None]
        lateness_ms = [s[1] * 1e3 for s in samples]
        engines = [client.engine.stats for client in clients]
        issued = sum(e.issued for e in engines)
        datagrams = fabric_stats.messages_sent - marks.get("sent", 0)
        outcome = Outcome(
            queries=len(samples), attempted=attempted, failed=attempted - ok,
            success_frac=ok / max(attempted, 1),
            latency_p50_ms=statistics.median(ref_latency) if ref_latency else 0.0,
            digest=None, problems=problems,
            layer={
                "server.resolver.requests": resolver.stats.requests_received,
                "server.resolver.upstream_per_request":
                    resolver.stats.queries_sent / max(resolver.stats.requests_received, 1),
                "server.resolver.retry_frac":
                    resolver.stats.query_retries / max(resolver.stats.queries_sent, 1),
                "server.authoritative.queries": root.stats.queries_received + target.stats.queries_received,
                "transport.udp.datagrams_sent": datagrams,
                "transport.udp.datagrams_per_query": datagrams / max(len(samples), 1),
                "transport.udp.decode_errors": fabric_stats.decode_errors,
                "transport.engine.retransmit_frac": sum(e.retransmits for e in engines) / max(issued, 1),
                "transport.engine.timeout_frac": sum(e.timeouts for e in engines) / max(issued, 1),
                "transport.latency_p50_ms": statistics.median(from_due) if from_due else 0.0,
                "transport.latency_p90_ms": _quantile(from_due, 0.90),
                "transport.latency_p99_ms": _quantile(from_due, 0.99),
                "transport.latency_p999_ms": _quantile(from_due, 0.999),
                "transport.loadgen_late_p50_ms": statistics.median(lateness_ms) if lateness_ms else 0.0,
                "transport.loadgen_late_p99_ms": _quantile(lateness_ms, 0.99),
                "transport.warmup_s": marks.get("warmup_s", 0.0),
            },
        )
        return outcome
    finally:
        await backend.aclose()


RUNNERS: Dict[str, Callable[[int, Dict[str, Any], Harness], Outcome]] = {
    "ctrl_path": ctrl_path,
    "sim_nx_dcc": _sim,
    "sim_ff_vanilla": _sim,
    "live_wc_dcc": _live,
    "live_pool_bare": _live,
    "scale_hybrid": scale_hybrid,
}
