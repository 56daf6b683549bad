"""Ablation drivers: the design choices DESIGN.md calls out, printable.

Five studies, each isolating one design decision of the DCC framework:

- **schedulers** -- the Figure 7 design space under a hog/meek mix and
  under cross-channel congestion (fairness + HOL blocking);
- **depth** -- MOPI-FQ queue depth vs max-min-fairness deviation
  (Theorem B.1's capacity assumption);
- **mitigations** -- the NX-flood mitigation matrix: vanilla vs RFC 8198
  aggressive denial vs DCC;
- **countdown** -- how early a forwarder polices a signaled suspect
  (Section 3.3.1), on the Figure 9 NX chain;
- **end-to-end schedulers** -- Figure 7's baselines inside the shim.

`python -m repro ablations` prints all five; ``failures`` judges them.
"""

from __future__ import annotations

import argparse
import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import jain_index, mmf_deviation
from repro.analysis.report import render_table
from repro.dcc.baselines import (
    FifoScheduler,
    InputCentricFq,
    IoIsolatedFq,
    LeapfrogInputFq,
    OutputCentricFq,
)
from repro.dcc.monitor import MonitorConfig
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.experiments import fig9_signaling
from repro.experiments.common import AttackScenario, ScenarioConfig, report_failures
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.ratelimit import RateLimitConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import NxdomainPattern, WildcardPattern
from repro.workloads.schedule import ClientSpec
from repro.workloads.zonegen import build_root_zone, build_target_zone

SCHEDULER_FACTORIES: Dict[str, Callable[[], object]] = {
    "fifo": lambda: FifoScheduler(default_rate=100.0),
    "input-centric": lambda: InputCentricFq(default_rate=100.0),
    "leapfrog": lambda: LeapfrogInputFq(default_rate=100.0),
    "io-isolated": lambda: IoIsolatedFq(default_rate=100.0),
    "output-centric": lambda: OutputCentricFq(default_rate=100.0),
    "MOPI-FQ": lambda: MopiFq(MopiFqConfig(default_channel_rate=100.0)),
}

#: the Table 2 demand vector and channel the depth study allocates
DEPTH_DEMAND = {"heavy": 600.0, "medium": 350.0, "light": 150.0, "attacker": 1100.0}
DEPTH_CAPACITY = 1000.0

#: channel of the mitigation matrix / of the end-to-end scheduler study
MITIGATION_CAPACITY = 100.0
E2E_CAPACITY = 300.0
#: None = the shim's own MOPI-FQ
E2E_SCHEDULERS: Dict[str, Optional[Callable[[], object]]] = {
    "MOPI-FQ": None,
    "fifo": lambda: FifoScheduler(capacity=10_000, default_rate=E2E_CAPACITY),
    "input-centric": lambda: InputCentricFq(per_source_depth=100, default_rate=E2E_CAPACITY),
    "io-isolated": lambda: IoIsolatedFq(per_queue_depth=100, default_rate=E2E_CAPACITY),
}


# ----------------------------------------------------------------------
# scheduler design space
# ----------------------------------------------------------------------

def fairness_study(T: float = 10.0, seed: int = 1) -> Dict[str, Tuple[float, float]]:
    """Hog (500 QPS) vs three meek (20 QPS) sources on a 100-QPS channel:
    scheduler -> (QPS of each meek source, QPS of the hog)."""
    served = {}
    for name, factory in SCHEDULER_FACTORIES.items():
        rng = random.Random(seed)
        sched = factory()
        sched.set_channel_capacity("d", 100.0, 10.0)
        arrivals = {"hog": 0.0, "m0": 0.0, "m1": 0.0, "m2": 0.0}
        rates = {"hog": 500.0, "m0": 20.0, "m1": 20.0, "m2": 20.0}
        counts: Dict[str, int] = {}
        t = 0.0
        while t < T:
            source = min(arrivals, key=arrivals.get)
            t = arrivals[source]
            sched.enqueue(source, "d", None, t)
            arrivals[source] = t + (1.0 / rates[source]) * rng.uniform(0.9, 1.1)
            while True:
                item = sched.dequeue(t)
                if item is None:
                    break
                if t > 2.0:
                    counts[item.source] = counts.get(item.source, 0) + 1
        horizon = T - 2.0
        meek_rate = sum(counts.get(f"m{i}", 0) for i in range(3)) / 3 / horizon
        served[name] = (meek_rate, counts.get("hog", 0) / horizon)
    return served


def hol_study(T: float = 5.0) -> Dict[str, Tuple[int, int]]:
    """Delivery to a healthy channel while another is congested:
    scheduler -> (delivered to, offered to) the healthy channel."""
    delivered = {}
    for name, factory in SCHEDULER_FACTORIES.items():
        sched = factory()
        sched.set_channel_capacity("dead", 0.001, 1.0)
        sched.set_channel_capacity("ok", 1000.0, 100.0)
        sched.channel_bucket("dead").try_consume(0.0)
        healthy = 0
        offered = 0
        t = 0.0
        i = 0
        while t < T:
            t += 0.01
            i += 1
            to_ok = bool(i % 2 == 0)
            if to_ok:
                offered += 1
            sched.enqueue("s", "ok" if to_ok else "dead", None, t)
            while True:
                item = sched.dequeue(t)
                if item is None:
                    break
                if item.destination == "ok":
                    healthy += 1
        delivered[name] = (healthy, offered)
    return delivered


# ----------------------------------------------------------------------
# depth vs fairness
# ----------------------------------------------------------------------

def depth_study(
    depths: Sequence[int] = (25, 50, 100, 200, 300), T: float = 15.0, seed: int = 7
) -> Dict[int, Dict[str, float]]:
    """The Table 2 demand vector through one MOPI-FQ channel: queue
    depth -> QPS served per source."""
    served = {}
    for depth in depths:
        rng = random.Random(seed)
        fq = MopiFq(MopiFqConfig(max_poq_depth=depth, max_round=75, pool_capacity=100_000))
        fq.set_channel_capacity("dst", DEPTH_CAPACITY)
        events = []
        names = list(DEPTH_DEMAND)
        for i, name in enumerate(names):
            heapq.heappush(events, (1.0 / DEPTH_DEMAND[name], i, 0))
        counts = {name: 0 for name in names}
        seq = 1
        while events:
            t, i, _ = heapq.heappop(events)
            if t > T:
                break
            while True:
                item = fq.dequeue(t)
                if item is None:
                    break
                if t >= 5.0:
                    counts[item.source] += 1
            name = names[i]
            fq.enqueue(name, "dst", None, t)
            heapq.heappush(events, (t + (1.0 / DEPTH_DEMAND[name]) * (1 + rng.uniform(-0.1, 0.1)), i, seq))
            seq += 1
        served[depth] = {name: counts[name] / (T - 5.0) for name in names}
    return served


# ----------------------------------------------------------------------
# through the whole DNS stack: mitigations, countdown, schedulers
# ----------------------------------------------------------------------

def _mitigation_cell(use_dcc: bool, signed: bool, aggressive: bool, seed: int) -> Dict[str, float]:
    sim = Simulator(seed=seed)
    net = Network(sim)
    root = AuthoritativeServer("10.0.0.1", zones=[
        build_root_zone({"victim.": ("ns1.victim.", "10.0.0.2")})])
    ans = AuthoritativeServer("10.0.0.2", zones=[
        build_target_zone("victim.", "ns1", "10.0.0.2", signed=signed, negative_ttl=30)],
        ingress_limit=RateLimitConfig(rate=MITIGATION_CAPACITY, mode="window"))
    resolver = RecursiveResolver("10.0.1.1", ResolverConfig(aggressive_nsec=aggressive))
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
    for node in (root, ans, resolver):
        net.attach(node)
    if use_dcc:
        shim = DccShim(resolver, DccConfig(
            monitor=MonitorConfig(window=0.5, alarm_threshold=5, suspicion_period=30.0)))
        shim.set_channel_capacity("10.0.0.2", MITIGATION_CAPACITY)
    attacker = StubClient("10.2.0.1", NxdomainPattern("victim."),
                          ClientConfig(rate=400.0, start=0.0, stop=8.0, resolvers=["10.0.1.1"]))
    benign = StubClient("10.1.0.1", WildcardPattern("victim."),
                        ClientConfig(rate=30.0, start=0.0, stop=8.0, resolvers=["10.0.1.1"]))
    for client in (attacker, benign):
        net.attach(client)
        client.start()
    sim.run(until=10.0)
    return {
        "benign_success": benign.success_ratio(2.0, 8.0),
        "channel_load": ans.stats.queries_received,
        "nsec_suppressed": resolver.stats.aggressive_nsec_responses,
    }


def mitigation_study(seed: int = 5) -> Dict[str, Dict[str, float]]:
    """A 400-QPS NX flood and 30 QPS of benign WC traffic against a
    100-QPS channel: what each deployed mitigation leaves of both."""
    return {
        "vanilla, unsigned zone": _mitigation_cell(False, False, False, seed),
        "vanilla + RFC 8198, signed zone": _mitigation_cell(False, True, True, seed),
        "DCC, unsigned zone": _mitigation_cell(True, False, False, seed),
    }


def countdown_study(seed: int = 42) -> Dict[int, Dict[str, float]]:
    """Figure 9's NX chain at scale 0.1, signaling on: the forwarder's
    countdown threshold (Section 3.3.1) -> success ratios over the
    attack window (the paper's threshold is 5)."""
    scale = 0.1
    damage = {}
    for threshold in (0, 5, 9):
        run = fig9_signaling.run_scenario("nxdomain", True, scale=scale, seed=seed, countdown_threshold=threshold)
        damage[threshold] = {**fig9_signaling.collateral_damage(run, scale),
                             "attacker": run.result.success_ratio("attacker", 25.0 * scale, 55.0 * scale)}
    return damage


def e2e_scheduler_study(seed: int = 21) -> Dict[str, Tuple[float, float]]:
    """Two 40-QPS benign clients and a 600-QPS WC attacker on a 300-QPS
    channel for 8 s, the shim's scheduler swapped: scheduler -> (the
    worse benign success ratio, the attacker's effective QPS)."""
    duration = 8.0
    outcome = {}
    for name, factory in E2E_SCHEDULERS.items():
        scenario = AttackScenario(ScenarioConfig(
            seed=seed, duration=duration, channel_capacity=E2E_CAPACITY, use_dcc=True, scheduler_factory=factory))
        scenario.add_clients([
            ClientSpec("benign1", 0.0, duration, 40.0, "WC"),
            ClientSpec("benign2", 0.0, duration, 40.0, "WC"),
            ClientSpec("attacker", 1.0, duration, 600.0, "WC", is_attacker=True),
        ])
        result = scenario.run()
        benign = min(result.success_ratio(client, 2.0, duration - 0.5) for client in ("benign1", "benign2"))
        outcome[name] = (benign, sum(result.effective_qps["attacker"][2:8]) / 6)
    return outcome


def failures(result: Dict[str, Any]) -> List[str]:
    """The design arguments ``result`` (study -> its return value, any subset) does not show."""
    problems: List[str] = []

    def expect(holds: bool, text: str) -> None:
        if not holds:
            problems.append(text)

    for name, (meek, _) in result.get("fairness", {}).items():  # meek demand 20 each, fair share 25
        expect(meek < 18.0 if name == "fifo" else meek > 15.0,
               f"Figure 7 fairness: only FIFO lets the hog starve the 20-QPS meek sources, {name} gave {meek:.1f}")
    for name, (healthy, offered) in result.get("hol", {}).items():
        low, high = {"fifo": (-1.0, 0.1), "input-centric": (-1.0, 0.1), "leapfrog": (0.1, 0.6)}.get(name, (0.8, 2.0))
        expect(low < healthy / max(1, offered) < high,
               f"Figure 7 head-of-line blocking: FIFO and input-centric block, leapfrog drops once full, "
               f"output-isolated designs deliver; {name} delivered {healthy}/{offered} to the healthy channel")
    depth = {d: mmf_deviation(served, DEPTH_DEMAND, DEPTH_CAPACITY) for d, served in result.get("depth", {}).items()}
    for d, deviation in depth.items():
        total = sum(result["depth"][d].values())
        met = d >= len(DEPTH_DEMAND) * 75  # senders x MAX_ROUND: the proof's capacity assumption
        expect(deviation < 0.05 if met else deviation < 0.45 and abs(total - DEPTH_CAPACITY) <= 0.05 * DEPTH_CAPACITY,
               f"Theorem B.1: depth {d} should be {'max-min fair' if met else 'bounded and work-conserving'}, MMF "
               f"deviation {deviation:.3f} with {total:.0f} of {DEPTH_CAPACITY:.0f} QPS served")
    expect(len(depth) < 2 or depth[max(depth)] < depth[min(depth)],
           f"Theorem B.1: the deepest queue should be fairer than the shallowest, MMF deviations {depth}")
    cells = list(result.get("mitigations", {}).values())
    if cells:
        vanilla, rfc8198, dcc = (cell["benign_success"] for cell in cells)
        expect(vanilla < 0.75, f"mitigation matrix: the NX flood should collapse vanilla, benign success {vanilla:.2f}")
        expect(rfc8198 > max(0.95, vanilla + 0.2) and cells[1]["nsec_suppressed"] > 1000
               and cells[1]["channel_load"] < MITIGATION_CAPACITY * 8 * 0.6,
               f"mitigation matrix: RFC 8198 on a signed zone should answer the flood locally, {cells[1]}")
        expect(dcc > max(0.9, vanilla + 0.15), f"mitigation matrix: DCC should protect without signing, {dcc:.2f}")
    for threshold, damage in result.get("countdown", {}).items():
        expect(damage["attacker"] < 0.5 and (threshold < 5 or damage["heavy"] > 0.7),
               f"countdown threshold {threshold}: the attacker should never profit, and from 5 up the innocent heavy "
               f"client should be spared, {damage}")
    e2e = result.get("e2e", {})
    for name, (benign, attacker) in e2e.items():
        mopi = e2e["MOPI-FQ"][0]
        holds = {"fifo": benign < min(0.75, mopi - 0.15), "MOPI-FQ": benign > 0.9 and attacker < E2E_CAPACITY}
        expect(holds.get(name, benign > 0.85),
               f"Figure 7 end to end: only FIFO should let the attacker swamp the 40-QPS benign clients, under {name} "
               f"they succeed {benign:.2f} (attacker {attacker:.0f} QPS)")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """``--seed`` feeds the studies' local RNGs and simulators, offset so
    that ``--seed 1`` is each study's historical seed (1, 7, 5, 42, 21)."""
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro ablations", description="design-choice ablations (schedulers, depth, mitigations, "
        "countdown, end-to-end schedulers)")
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    print(provenance_header("ablations", seed=seed))
    result: Dict[str, Any] = {"fairness": fairness_study(seed=seed), "hol": hol_study()}
    print("=== Ablation 1: scheduler design space (Figure 7) ===\n")
    print("-- fairness: hog 500 QPS vs 3x meek 20 QPS on a 100-QPS channel --")
    print(render_table(
        ["scheduler", "meek QPS (each)", "hog QPS", "Jain"],
        [[name, f"{meek:.1f}", f"{hog:.1f}", f"{jain_index([meek] * 3 + [hog]):.2f}"]
         for name, (meek, hog) in result["fairness"].items()],
    ))
    print("\n-- head-of-line blocking: healthy-channel delivery while another "
          "channel is dead --")
    print(render_table(
        ["scheduler", "delivered", "ratio"],
        [[name, f"{healthy}/{offered}", f"{healthy / max(1, offered):.0%}"]
         for name, (healthy, offered) in result["hol"].items()],
    ))

    result["depth"] = depth_study(seed=seed + 6)
    print("\n=== Ablation 2: MOPI-FQ queue depth vs max-min fairness ===\n")
    print(render_table(
        ["depth", "heavy/medium/light/attacker QPS", "MMF deviation", ""],
        [[depth, "/".join(f"{qps:.0f}" for qps in served.values()),
          f"{mmf_deviation(served, DEPTH_DEMAND, DEPTH_CAPACITY):.3f}",
          "(meets Thm B.1 assumption)" if depth >= 300 else ""]
         for depth, served in result["depth"].items()],
    ))
    print("\n(ideal water-filling: 283/283/150/283; deviation -> 0 once the "
          "queue accommodates all senders)")

    result["mitigations"] = mitigation_study(seed=seed + 4)
    print("\n=== Ablation 3: NX-flood mitigation matrix (400-QPS flood, 100-QPS channel) ===\n")
    print(render_table(
        ["cell", "benign success", "queries at the victim", "answered from NSEC"],
        [[name, f"{cell['benign_success']:.2f}", cell["channel_load"], cell["nsec_suppressed"]]
         for name, cell in result["mitigations"].items()],
    ))

    result["countdown"] = countdown_study(seed=seed + 41)
    print("\n=== Ablation 4: signaling countdown threshold (Figure 9 NX chain, scale 0.1) ===\n")
    print(render_table(
        ["threshold", "heavy success", "light success", "attacker success"],
        [[threshold] + [f"{ratio:.2f}" for ratio in damage.values()]
         for threshold, damage in result["countdown"].items()],
    ))

    result["e2e"] = e2e_scheduler_study(seed=seed + 20)
    print("\n=== Ablation 5: Figure 7 schedulers inside the full DCC stack "
          "(600-QPS WC attacker, 300-QPS channel) ===\n")
    print(render_table(
        ["scheduler", "benign success (worse of 2)", "attacker eff. QPS"],
        [[name, f"{benign:.2f}", f"{attacker:.0f}"] for name, (benign, attacker) in result["e2e"].items()],
    ))
    return report_failures(failures(result))
