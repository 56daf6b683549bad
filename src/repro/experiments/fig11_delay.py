"""Figure 11: processing delay added by DCC.

The paper measures the time a vanilla vs DCC-enabled resolver takes to
process one cache-missing WC request (1M requests; RTT to the ANS
~1 ms dominates), under four combinations of tracked clients (C) and
servers (S) in {1K, 100K}, and plots the CDF -- showing DCC's added
delay is marginal.

Reproduction in two parts:

- **end-to-end (virtual time)**: request latency through the simulator
  for vanilla vs DCC, capturing queueing/scheduling delay in an
  uncongested system (should be ~RTT for both);
- **control-path (wall clock)**: the real Python cost of DCC's per-query
  work (attribution decode, policing check, enqueue, dequeue, monitor
  updates) with the state tables pre-populated to C clients and S
  servers -- the analogue of the prototype's added CPU time, whose CDF
  should be flat across table sizes (constant/log-time operations).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.report import render_table
from repro.analysis.series import percentile
from repro.dnscore.rdata import RCode
from repro.experiments.common import AttackScenario, ScenarioConfig, not_judged, report_failures
from repro.experiments.fig10_overhead import warm_control_loop
from repro.workloads.schedule import ClientSpec


@dataclass
class DelaySample:
    label: str
    samples_ms: List[float]

    def summary(self) -> List[object]:
        return [
            self.label,
            f"{percentile(self.samples_ms, 50):.3f}",
            f"{percentile(self.samples_ms, 90):.3f}",
            f"{percentile(self.samples_ms, 99):.3f}",
        ]


# ----------------------------------------------------------------------
# end-to-end virtual-time latency
# ----------------------------------------------------------------------

def run_end_to_end(use_dcc: bool, requests: int = 2000, seed: int = 42) -> DelaySample:
    """Uncongested request latency distribution through the simulator."""
    rate = 200.0
    duration = requests / rate
    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        channel_capacity=10_000.0,
        use_dcc=use_dcc,
    )
    scenario = AttackScenario(config)
    scenario.add_clients([ClientSpec("probe", 0.0, duration, rate, "WC")])
    scenario.run()
    log = scenario.clients["probe"].records
    samples = [
        (completed_at - sent_at) * 1000.0
        for sent_at, completed_at in zip(log.sent_at, log.completed_at)
        if completed_at == completed_at  # NaN: never answered
    ]
    return DelaySample("DCC (end-to-end)" if use_dcc else "vanilla (end-to-end)", samples)


# ----------------------------------------------------------------------
# wall-clock control-path cost
# ----------------------------------------------------------------------

def run_control_path(
    n_clients: int, n_servers: int, requests: int = 20_000, seed: int = 13
) -> DelaySample:
    """Per-request wall-clock cost of the DCC datapath at (C, S) scale."""
    import random

    rng = random.Random(seed)
    scheduler, monitor, engine, tables, clients, servers = warm_control_loop(
        n_clients, n_servers, channel_rate=1e9
    )
    now = 0.0

    samples: List[float] = []
    for i in range(requests):
        now += 0.0005
        client = clients[rng.randrange(n_clients)]
        server = servers[rng.randrange(n_servers)]
        start = time.perf_counter()
        state = tables.open_request(client, i, now)
        engine.check(client, now)
        monitor.record_query(client, now)
        scheduler.enqueue(client, server, i, now)
        item = scheduler.dequeue(now)
        if item is not None:
            monitor.record_answer(item.source, RCode.NOERROR, now)
        tables.close_request(client, i)
        samples.append((time.perf_counter() - start) * 1000.0)
    label = f"DCC path (C={n_clients // 1000}K, S={n_servers // 1000}K)"
    return DelaySample(label, samples)


def run_figure11(
    requests: int = 20_000,
    end_to_end_requests: int = 2000,
    combos: Optional[List[Tuple[int, int]]] = None,
) -> List[DelaySample]:
    combos = combos or [(1000, 1000), (1000, 100_000), (100_000, 1000), (100_000, 100_000)]
    results = [
        run_end_to_end(False, requests=end_to_end_requests),
        run_end_to_end(True, requests=end_to_end_requests),
    ]
    results.extend(run_control_path(c, s, requests=requests) for c, s in combos)
    return results


def failures(results: List[DelaySample]) -> List[str]:
    """The Figure 11 claims ``results`` (``run_figure11``'s shape, any subset) does not show.  The
    control-path clause reads the wall clock, hence its slack."""
    problems = []
    p90 = {r.label.split()[0]: percentile(r.samples_ms, 90) for r in results if "end-to-end" in r.label}
    if len(p90) < 2:
        not_judged("Figure 11: DCC adds marginal end-to-end delay", "no vanilla/DCC pair")
    elif not p90["DCC"] <= p90["vanilla"] + 1.0:
        problems.append(f"Figure 11: DCC should add no perceptible end-to-end delay when uncongested, but its p90 "
                        f"is {p90['DCC']:.3f} ms against vanilla's {p90['vanilla']:.3f}")
    medians = [percentile(r.samples_ms, 50) for r in results if r.label.startswith("DCC path")]
    if len(medians) < 2:
        not_judged("Figure 11: control-path cost flat across state sizes", "fewer than two (C, S) points")
    if not all(m < 1.0 for m in medians) or (len(medians) >= 2 and not medians[-1] < 5 * medians[0]):
        problems.append(f"Figure 11: the control path should cost well under a millisecond per request and stay "
                        f"near-flat across state sizes, but the medians are {medians} ms")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig11", description="added processing delay CDFs")
    parser.add_argument("--quick", action="store_true")
    quick = parser.parse_args(argv).quick
    print(provenance_header("fig11", config={"quick": quick}))
    combos = [(1000, 1000), (100_000, 100_000)] if quick else None
    requests = 5000 if quick else 20_000
    results = run_figure11(requests=requests, combos=combos)
    print("=== Figure 11: request processing delay (ms) ===")
    print(render_table(
        ["series", "p50", "p90", "p99"],
        [r.summary() for r in results],
    ))
    vanilla = next(r for r in results if r.label.startswith("vanilla"))
    dcc = next(r for r in results if r.label.startswith("DCC (end"))
    added = percentile(dcc.samples_ms, 50) - percentile(vanilla.samples_ms, 50)
    print(f"\nDCC median added end-to-end delay: {added:.3f} ms "
          f"(paper: marginal, network-dominated)")
    return report_failures(failures(results))
