"""``repro scale``: million-client hybrid fluid/packet scenarios.

The fig8-shaped population experiment at paper scale (ISSUE 10): the
benign mass -- heavy/medium/light tiers on cache-friendly zipf pools
plus a promotable NX "suspect" sliver -- rides the fluid cohort model,
while the attacker (and anything the defense flags) stays packet-level
against a DCC-protected resolver.  Three modes:

- ``fluid``   -- cohorts only integrate; promotion disabled.  The
  cheapest mode: per-tick float-lane updates regardless of population.
- ``hybrid``  -- fluid cohorts plus the seeded promotion/demotion path:
  heavy-hitter evidence (and DCC monitor verdicts, via the external
  flag refresh) materialize bounded slices as real packet clients.
- ``packet``  -- the reference: the suspect cohort and attacker as
  plain packet clients, no fluid at all.  Small enough to run exactly;
  this is what hybrid verdicts are compared against.

Every mode hashes its run into a selfcheck-style digest (delivered
packet trace + fluid tick ledger + promotion event log) and, with
``--runs 2`` (the default), proves double-run equality -- the CI
``scale-smoke`` job gates on it.  ``--check-verdicts`` (on by default
in mode ``all``) additionally asserts that the hybrid run's DCC
verdicts on the flagged flows match the packet-only reference address
by address.

The fluid/packet coupling is real, not cosmetic: cohort cache-misses
drain the DCC scheduler's *own* per-channel token bucket
(``shim.scheduler.channel_bucket``), and the aggregate fluid backlog
feeds the resolver's overload watermarks through
``OverloadController.external_pressure``.  See docs/SCALING.md.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dcc.monitor import MonitorConfig
from repro.experiments.common import TARGET_ORIGIN, AttackScenario, ScenarioConfig
from repro.fluid import FluidBridge, PromotionConfig, PromotionController
from repro.fluid.cohort import CohortSpec, pool_miss_ratio
from repro.netsim.trace import MessageTrace
from repro.server.overload import OverloadConfig
from repro.server.resolver import ResolverConfig
from repro.workloads.cohorts import (
    SliceMaterializer,
    mount_fluid,
    packet_cohort_clients,
    scale_cohort_specs,
)
from repro.workloads.schedule import ClientSpec

MODES = ("fluid", "hybrid", "packet")

#: channel headroom above the estimated benign miss rate (QPS); the
#: attacker exists to overwhelm exactly this margin
HEADROOM = 400.0
ATTACKER_START_FRAC = 0.1
SUSPECT_CLIENTS = 8
SUSPECT_RATE = 40.0
#: virtual seconds between promotion decisions (and monitor-flag refreshes)
DECIDE_INTERVAL = 0.5


@dataclass
class ScaleConfig:
    """Knobs of one scale scenario (shared across modes for parity)."""

    seed: int = 42
    clients: int = 1_000_000
    duration: float = 20.0
    grace: float = 2.0
    tick: float = 0.1
    attacker_rate: float = 1200.0

    def cohort_specs(self) -> List[CohortSpec]:
        return scale_cohort_specs(
            self.clients,
            self.duration,
            TARGET_ORIGIN,
            destination="",  # filled per-scenario with the target address
            suspect_clients=SUSPECT_CLIENTS,
            suspect_rate=SUSPECT_RATE,
        )

    def estimated_miss_qps(self, specs: List[CohortSpec]) -> float:
        """Expected steady-state upstream demand of the benign mass."""
        total = 0.0
        for spec in specs:
            if spec.pattern == "WC_POOL":
                ratio = pool_miss_ratio(
                    spec.aggregate_rate, spec.pool_size, spec.zipf_s, spec.ttl
                )
            else:
                ratio = 1.0
            total += spec.aggregate_rate * ratio
        return total


@dataclass
class ModeResult:
    """Everything one mode run reports (and hashes)."""

    mode: str
    digest: str
    events_processed: int
    packet_messages: int
    wall_seconds: float
    #: address -> verdict string for the flows of interest
    verdicts: Dict[str, str]
    #: fluid conservation ledger (empty in packet mode)
    ledger: Dict[str, float]
    promotions: int
    demotions: int
    promoted_addresses: List[str]
    fluid_served: float
    client_seconds: float

    @property
    def clients_per_sec(self) -> float:
        """Simulated client-seconds of load per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.client_seconds / self.wall_seconds


class ScaleScenario:
    """One mode run: fig8 topology + cohorts + (optional) promotion."""

    def __init__(self, config: ScaleConfig, mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.config = config
        self.mode = mode
        self.specs = config.cohort_specs()
        capacity = config.estimated_miss_qps(self.specs) + HEADROOM
        self.scenario = AttackScenario(
            ScenarioConfig(
                seed=config.seed,
                duration=config.duration,
                channel_capacity=capacity,
                use_dcc=True,
                ff_instances=20,
                monitor=MonitorConfig(
                    window=1.0,
                    alarm_threshold=4,
                    suspicion_period=20.0,
                    nxdomain_ratio_threshold=0.2,
                    min_observations=4,
                ),
                resolver_config=ResolverConfig(
                    overload=OverloadConfig(
                        high_watermark=4096,
                        low_watermark=2048,
                    )
                ),
            )
        )
        self.target_addr = self.scenario.target_ans_addrs[0]
        for spec in self.specs:
            spec.destination = self.target_addr
        self.shim = self.scenario.shims[0]
        self.resolver = self.scenario.resolvers[0]
        self.trace = MessageTrace(self.scenario.net)
        self.scenario.add_clients(
            [
                ClientSpec(
                    name="attacker",
                    start=ATTACKER_START_FRAC * config.duration,
                    stop=config.duration,
                    rate=config.attacker_rate,
                    pattern="NX",
                    is_attacker=True,
                )
            ]
        )
        self.bridge: Optional[FluidBridge] = None
        self.controller: Optional[PromotionController] = None
        self.materializer: Optional[SliceMaterializer] = None
        self._packet_suspects: List = []
        if mode == "packet":
            self._build_packet()
        else:
            self._build_fluid(promotion=(mode == "hybrid"))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_packet(self) -> None:
        """Reference: suspect cohort fully packet-level, no fluid."""
        suspect = [spec for spec in self.specs if spec.name == "suspect"][0]
        self._packet_suspects = packet_cohort_clients(
            suspect,
            self.scenario.net,
            [self.resolver.address],
            stop=self.config.duration,
        )
        for client in self._packet_suspects:
            client.start()

    def _build_fluid(self, promotion: bool) -> None:
        sim = self.scenario.sim
        horizon = self.config.duration + self.config.grace
        # The coupling point: fluid misses drain the DCC scheduler's own
        # channel bucket, so packet flows and fluid load contend for the
        # same tokens.
        self.bridge = mount_fluid(
            sim, self.specs, self.resolver, self.shim,
            self.scenario.config.channel_capacity, stop_at=horizon, tick=self.config.tick,
        )
        self.bridge.start()
        if not promotion:
            return
        self.materializer = SliceMaterializer(
            self.scenario.net,
            [self.resolver.address],
            stop=self.config.duration,
        )
        self.controller = PromotionController(
            sim,
            self.bridge,
            PromotionConfig(
                decide_interval=DECIDE_INTERVAL,
                threshold_qps=20.0,
                promote_per_flag=2,
                max_promoted=32,
                quiet_period=4.0,
                stop_at=horizon,
            ),
            seed=self.config.seed,
        )
        self.controller.materialize = self.materializer.materialize
        self.controller.dematerialize = self.materializer.dematerialize
        self.controller.start()
        sim.schedule(DECIDE_INTERVAL * 0.5, self._refresh_flags)

    # ------------------------------------------------------------------
    # tick hooks (bound methods: reprolint R4 hygiene)
    # ------------------------------------------------------------------
    def _refresh_flags(self) -> None:
        """The DCC-monitor promotion trigger: while the monitor holds a
        promoted client in suspicion or conviction, keep its slice
        materialized (the fluid sketch signal died with the promotion)."""
        now = self.scenario.sim.now
        monitor = self.shim.monitor
        for key, handle in self.controller.live_handles():
            for client in handle.clients:
                if monitor.verdict(client.address).value != "normal":
                    self.controller.flag(key, now)
                    break
        horizon = self.config.duration + self.config.grace
        interval = DECIDE_INTERVAL
        if now + interval <= horizon + 1e-9:
            self.scenario.sim.schedule(interval, self._refresh_flags)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ModeResult:
        started = time.perf_counter()
        result = self.scenario.run(grace=self.config.grace)
        wall = time.perf_counter() - started
        if self.controller is not None:
            self.controller.demote_all(self.scenario.sim.now)
        return ModeResult(
            mode=self.mode,
            digest=self._digest(result.events_processed),
            events_processed=result.events_processed,
            packet_messages=len(self.trace),
            wall_seconds=wall,
            verdicts=self._verdicts(),
            ledger=self.bridge.ledger() if self.bridge is not None else {},
            promotions=self.controller.promotions if self.controller else 0,
            demotions=self.controller.demotions if self.controller else 0,
            promoted_addresses=self._promoted_addresses(),
            fluid_served=self.bridge.served_total() if self.bridge else 0.0,
            client_seconds=self._client_seconds(),
        )

    def _client_seconds(self) -> float:
        fluid_clients = self.bridge.client_count() if self.bridge is not None else 0
        packet_clients = len(self._packet_suspects) + len(self.scenario.clients)
        if self.materializer is not None:
            packet_clients += len(self.materializer.all_clients)
        return (fluid_clients + packet_clients) * self.config.duration

    def _promoted_addresses(self) -> List[str]:
        if self.materializer is not None:
            return [client.address for client in self.materializer.all_clients]
        if self.mode == "packet":
            return [client.address for client in self._packet_suspects]
        return []

    def _verdicts(self) -> Dict[str, str]:
        """Monitor verdicts on the flows of interest (flagged + attacker)."""
        monitor = self.shim.monitor
        addresses = list(self.scenario._client_addr.values())
        addresses.extend(self._promoted_addresses())
        return {addr: monitor.verdict(addr).value for addr in sorted(addresses)}

    def _digest(self, events_processed: int) -> str:
        """selfcheck-style digest over everything the mode produced."""
        hasher = self.trace.sha256(events_processed)
        if self.bridge is not None:
            hasher.update(f"fluid={self.bridge.digest()}\n".encode("ascii"))
        if self.controller is not None:
            hasher.update(
                f"promotion={self.controller.events_digest()}\n".encode("ascii")
            )
        return hasher.hexdigest()


def run_mode(config: ScaleConfig, mode: str) -> ModeResult:
    return ScaleScenario(config, mode).run()


def compare_verdicts(hybrid: ModeResult, packet: ModeResult) -> List[str]:
    """Mismatch lines ([] = the acceptance property holds): on every
    flow the hybrid run promoted -- plus the attacker -- the DCC verdict
    must equal the packet-only reference's."""
    problems: List[str] = []
    flagged = [addr for addr in hybrid.promoted_addresses]
    flagged.extend(
        addr for addr, verdict in hybrid.verdicts.items()
        if addr.startswith("10.1.9.")  # attacker address block
    )
    for addr in sorted(set(flagged)):
        got = hybrid.verdicts.get(addr, "normal")
        want = packet.verdicts.get(addr, "normal")
        if got != want:
            problems.append(f"verdict mismatch at {addr}: hybrid={got} packet={want}")
    return problems


def _render(config: ScaleConfig, runs: Dict[str, List[ModeResult]],
            problems: List[str]) -> str:
    from repro.analysis.provenance import provenance_header

    lines = [
        provenance_header(
            "scale",
            seed=config.seed,
            config={
                "clients": config.clients,
                "duration": config.duration,
                "tick": config.tick,
            },
        ),
        f"=== Hybrid fluid/packet scale run (clients={config.clients}, "
        f"duration={config.duration}s) ===",
    ]
    for mode in MODES:
        results = runs.get(mode)
        if not results:
            continue
        first = results[0]
        digests = {r.digest for r in results}
        lines.append(f"--- mode {mode} ({len(results)} run(s)) ---")
        for i, r in enumerate(results, start=1):
            lines.append(f"  run {i}: digest {r.digest}")
        lines.append(
            "  double-run digests identical"
            if len(digests) == 1
            else "  DIGEST MISMATCH ACROSS RUNS"
        )
        lines.append(
            f"  events={first.events_processed} packet_messages={first.packet_messages} "
            f"wall={first.wall_seconds:.2f}s"
        )
        lines.append(
            f"  simulated load: {first.client_seconds:.0f} client-seconds "
            f"({first.clients_per_sec:,.0f} client-seconds/wall-second)"
        )
        if first.ledger:
            led = first.ledger
            lines.append(
                f"  fluid ledger: offered={led['offered']:.0f} hits={led['hits']:.0f} "
                f"upstream={led['upstream']:.0f} timeouts={led['timeouts']:.0f} "
                f"backlog={led['backlog']:.0f} residual={led['residual']:.3g}"
            )
        if first.promotions or first.demotions:
            lines.append(
                f"  promotions={first.promotions} demotions={first.demotions} "
                f"addresses={','.join(first.promoted_addresses) or '-'}"
            )
        interesting = {
            addr: verdict
            for addr, verdict in first.verdicts.items()
            if verdict != "normal"
        }
        lines.append(f"  non-normal verdicts: {interesting or '(none)'}")
    if problems:
        lines.append("--- verdict comparison: FAILED ---")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append(
            "--- verdict comparison: hybrid matches packet-only on flagged flows ---"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro scale",
        description="million-client hybrid fluid/packet scenario "
        "(double-run digest per mode; see docs/SCALING.md)",
    )
    parser.add_argument("--clients", type=int, default=1_000_000,
                        help="benign population size (default 10^6)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=20.0,
                        help="virtual seconds of scenario time")
    parser.add_argument("--tick", type=float, default=0.1,
                        help="fluid integration tick (virtual seconds)")
    parser.add_argument("--mode", choices=MODES + ("all",), default="all",
                        help="all = fluid + hybrid + packet reference "
                        "with verdict comparison")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs per mode (2 proves digest determinism)")
    parser.add_argument("--attacker-rate", type=float, default=1200.0)
    parser.add_argument("--no-check-verdicts", action="store_true",
                        help="skip the hybrid-vs-packet verdict gate")
    parser.add_argument("--out", type=str, default="results/scale.txt")
    args = parser.parse_args(argv)

    config = ScaleConfig(
        seed=args.seed,
        clients=args.clients,
        duration=args.duration,
        tick=args.tick,
        attacker_rate=args.attacker_rate,
    )
    modes = list(MODES) if args.mode == "all" else [args.mode]
    runs: Dict[str, List[ModeResult]] = {}
    ok = True
    for mode in modes:
        results = [run_mode(config, mode) for _ in range(max(1, args.runs))]
        runs[mode] = results
        if len({r.digest for r in results}) != 1:
            ok = False

    problems: List[str] = []
    if (
        not args.no_check_verdicts
        and "hybrid" in runs
        and "packet" in runs
    ):
        problems = compare_verdicts(runs["hybrid"][0], runs["packet"][0])
        if problems:
            ok = False

    report = _render(config, runs, problems)
    print(report)
    if args.out:
        import os

        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0 if ok else 1
