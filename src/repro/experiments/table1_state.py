"""Table 1: DCC state vs resolver state, by granularity.

Runs a short mixed workload through a DCC-enabled resolver and snapshots
both sides' live state entries:

=============  ===============================  ==========================
Granularity    Resolver                         DCC
=============  ===============================  ==========================
per-client     policing / ingress-RL entries    monitoring metrics,
                                                pre-queue policies
per-server     NS info + RL state (cache NS/A   queueing state (per-output
               entries, SRTT table)             rounds, channel buckets)
per-request    resolution state (pending        query statistics + signal
               requests, in-flight queries)     status
=============  ===============================  ==========================

The paper's claim (Section 3.2.4): DCC's state is asymptotically no
larger than the resolver's, and concretely smaller.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.dnscore.rdata import RRType
from repro.experiments.common import AttackScenario, ScenarioConfig, report_failures
from repro.workloads.schedule import ClientSpec


@dataclass
class StateSnapshot:
    resolver: Dict[str, int]
    dcc: Dict[str, int]

    def dcc_not_larger(self) -> bool:
        """DCC total entries <= resolver total entries."""
        return sum(self.dcc.values()) <= sum(self.resolver.values())


def run_table1(
    duration: float = 10.0,
    clients: int = 8,
    rate: float = 100.0,
    seed: int = 42,
) -> StateSnapshot:
    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        channel_capacity=2000.0,
        use_dcc=True,
    )
    scenario = AttackScenario(config)
    specs = [
        ClientSpec(f"client{i}", 0.0, duration, rate, "WC") for i in range(clients)
    ]
    scenario.add_clients(specs)
    # Snapshot mid-run (state is transient; at the end it would be empty).
    scenario_clients = scenario.clients
    for client in scenario_clients.values():
        client.start()
    scenario.sim.run(until=duration * 0.8)

    resolver = scenario.resolvers[0]
    shim = scenario.shims[0]

    # Resolver-side state entries.
    cache_entries = len(resolver.cache)
    pending_requests = resolver.pending_request_count()
    inflight_queries = len(resolver._query_registry)
    srtt_entries = len(resolver.health.srtt_table())
    resolver_state = {
        "per-client (RL/policing)": (
            resolver.ingress_rl.tracked_keys() if resolver.ingress_rl else clients
        ),
        "per-server (NS info, RL, SRTT)": cache_entries + srtt_entries,
        "per-request (resolution state)": pending_requests + inflight_queries,
    }

    dcc_state = {
        "per-client (monitoring, policies)": shim.monitor.tracked_clients()
        + len(shim.engine.active_policies(scenario.sim.now)),
        "per-server (queueing state)": shim.scheduler.per_output_entries(),
        "per-request (query stats, signals)": shim.tables.open_request_count()
        + shim.scheduler.total_depth,
    }
    return StateSnapshot(resolver=resolver_state, dcc=dcc_state)


def failures(snapshot: StateSnapshot) -> List[str]:
    """The Table 1 claims ``snapshot`` does not show."""
    problems = []
    if not snapshot.dcc_not_larger():
        problems.append(f"Table 1: DCC's state should be no larger than the resolver's, but holds "
                        f"{sum(snapshot.dcc.values())} entries against {sum(snapshot.resolver.values())}")
    if not (snapshot.resolver["per-server (NS info, RL, SRTT)"] and snapshot.dcc["per-client (monitoring, policies)"]):
        problems.append(f"Table 1: a mid-run snapshot should find the resolver's per-server and DCC's per-client "
                        f"state populated, but reads {snapshot.resolver} / {snapshot.dcc}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    argparse.ArgumentParser(
        prog="repro table1", description="DCC state vs resolver state"
    ).parse_args(argv)
    print(provenance_header("table1"))
    snapshot = run_table1()
    print("=== Table 1: live state entries, resolver vs DCC ===\n")
    rows = []
    for (r_label, r_count), (d_label, d_count) in zip(
        snapshot.resolver.items(), snapshot.dcc.items()
    ):
        rows.append([r_label, r_count, d_label, d_count])
    print(render_table(["resolver state", "#", "DCC state", "#"], rows))
    verdict = "<=" if snapshot.dcc_not_larger() else ">"
    print(f"\nDCC total {sum(snapshot.dcc.values())} {verdict} "
          f"resolver total {sum(snapshot.resolver.values())} "
          f"(paper: DCC state is no larger)")
    return report_failures(failures(snapshot))
