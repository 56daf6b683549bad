"""Figure 8: DCC's attack resilience in three adversarial scenarios.

Setup (paper Section 5.1): four clients (heavy / medium / light /
attacker, Table 2) share one recursive resolver whose channel to the
authoritative nameserver is capped at 1000 QPS.  Each scenario is run
twice -- vanilla resolver vs DCC-enabled resolver -- and the per-second
effective QPS of every client is reported:

- **Scenario 1 (WC)**: the attacker is indistinguishable from benign
  clients; DCC's fair queuing alone must level the field.
- **Scenario 2 (NX)**: pseudo-random-subdomain abuse; DCC's monitor
  (NXDOMAIN ratio > 0.2) convicts abusers and rate-limits them to
  100 QPS for 20 s; the heavy client stops abusing at t=20 s and regains
  its share once its policy expires.
- **Scenario 3 (FF)**: amplification; DCC convicts the attacker
  (amplification anomaly) and blocks it for 30 s.

DCC parameters follow the paper: queue depth 100, MAX_ROUND 75, pool
100K, monitoring window 2 s, 10 alarms / 60 s suspicion.

``scale`` shrinks rates and the timeline together for quick runs; the
figure shape is scale-invariant.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import render_table, sparkline
from repro.dcc.monitor import AnomalyKind, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.experiments.common import AttackScenario, ScenarioConfig, ScenarioResult, report_failures
from repro.workloads.schedule import TABLE2_SCENARIOS, table2_clients

#: capacity of the resolver -> authoritative channel (Section 5.1)
CHANNEL_QPS = 1000.0


#: Figure-8 DCC policy configuration (Section 5.1).
def paper_policy_templates(rate_scale: float = 1.0, time_scale: float = 1.0) -> Dict:
    return {
        AnomalyKind.NXDOMAIN: PolicyTemplate(
            PolicyKind.RATE_LIMIT, duration=20.0 * time_scale, rate=100.0 * rate_scale
        ),
        AnomalyKind.AMPLIFICATION: PolicyTemplate(PolicyKind.BLOCK, duration=30.0 * time_scale),
        AnomalyKind.RATE: PolicyTemplate(
            PolicyKind.RATE_LIMIT, duration=20.0 * time_scale, rate=100.0 * rate_scale
        ),
    }


def paper_monitor_config(time_scale: float = 1.0) -> MonitorConfig:
    return MonitorConfig(
        window=2.0 * time_scale,
        alarm_threshold=10,
        suspicion_period=60.0 * time_scale,
        nxdomain_ratio_threshold=0.2,
        amplification_threshold=5.0,
    )


@dataclass
class Figure8Run:
    scenario: str
    use_dcc: bool
    result: ScenarioResult

    def series(self, client: str) -> List[float]:
        if client == "attacker" and self.scenario == "amplification":
            # Figure 8 caption: for the FF attacker, effective QPS is
            # "calculated from the actual queries received by our
            # nameserver".
            return self.result.wire_qps.get("attacker", [0.0] * int(self.result.duration))
        return self.result.effective_qps[client]


def run_scenario(
    scenario: str,
    use_dcc: bool,
    scale: float = 1.0,
    seed: int = 42,
    attacker_rate: float = None,
) -> Figure8Run:
    """One Figure 8 cell: (scenario, vanilla|DCC)."""
    if scenario not in TABLE2_SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(TABLE2_SCENARIOS)}")
    # Only the *timeline* is scaled; rates, the channel capacity, and the
    # queue configuration stay at paper values so queuing-delay dynamics
    # (wait vs timeout) are preserved exactly.
    specs = table2_clients(scenario, attacker_rate=attacker_rate, time_scale=scale)
    duration = 60.0 * scale
    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        channel_capacity=CHANNEL_QPS,
        use_dcc=use_dcc,
        monitor=paper_monitor_config(time_scale=scale),
        policy_templates=paper_policy_templates(time_scale=scale),
        max_poq_depth=100,
        max_round=75,
        ff_instances=200,
    )
    scenario_obj = AttackScenario(config)
    scenario_obj.add_clients(specs)
    result = scenario_obj.run()
    return Figure8Run(scenario=scenario, use_dcc=use_dcc, result=result)


def run_figure8(scale: float = 1.0, seed: int = 42) -> Dict[str, Dict[str, Figure8Run]]:
    """All six Figure 8 panels: three scenarios x {vanilla, dcc}."""
    out: Dict[str, Dict[str, Figure8Run]] = {}
    for scenario in ("wildcard", "nxdomain", "amplification"):
        out[scenario] = {
            "vanilla": run_scenario(scenario, use_dcc=False, scale=scale, seed=seed),
            "dcc": run_scenario(scenario, use_dcc=True, scale=scale, seed=seed),
        }
    return out


def summarize(run: Figure8Run, phases: List[tuple]) -> List[List[object]]:
    """Mean effective QPS per client over labelled time phases."""
    rows = []
    for client in ("attacker", "heavy", "medium", "light"):
        series = run.series(client)
        row: List[object] = [client]
        for _, lo, hi in phases:
            lo_i, hi_i = int(lo), min(int(hi), len(series))
            window = series[lo_i:hi_i]
            row.append(round(sum(window) / max(1, len(window))))
        rows.append(row)
    return rows


def _attack_mean(run: Figure8Run, client: str, until: float = 50.0) -> float:
    """Mean effective QPS over paper seconds 25..``until``: attack on, every client active."""
    scale = run.result.duration / 60.0
    window = run.series(client)[int(25 * scale):int(until * scale)]
    return sum(window) / max(1, len(window))


def failures(runs: Dict[str, Dict[str, Figure8Run]]) -> List[str]:
    """The Figure 8 claims ``runs`` (``run_figure8``'s shape, any subset) does not show."""
    problems = []
    for scenario, pair in runs.items():
        vanilla, dcc = pair["vanilla"], pair["dcc"]
        heavy = _attack_mean(vanilla, "heavy")
        if not heavy < 400:
            problems.append(f"Figure 8 ({scenario}): vanilla should crush heavy well below 600 QPS, got {heavy:.0f}")
        medium, light = _attack_mean(dcc, "medium"), _attack_mean(dcc, "light", until=55.0)
        if not (medium > 250 and light > 100):
            problems.append(f"Figure 8 ({scenario}): DCC should serve medium and light (near) their full 350 and "
                            f"150 QPS despite the attack, got {medium:.0f} and {light:.0f}")
        for client in ("heavy", "medium") if scenario == "wildcard" else ("medium",):
            if not _attack_mean(dcc, client) > _attack_mean(vanilla, client):
                problems.append(f"Figure 8 ({scenario}): DCC should protect {client} better than vanilla does")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig8", description="DCC vs vanilla (Table 2 scenarios)")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    scale, seed = args.scale, args.seed
    print(provenance_header("fig8", seed=seed, scale=scale))
    runs = run_figure8(scale=scale, seed=seed)
    duration = 60.0 * scale
    phases = [
        ("0-10s", 0 * scale, 10 * scale),
        ("10-20s", 10 * scale, 20 * scale),
        ("20-50s", 20 * scale, 50 * scale),
        ("50-60s", 50 * scale, 60 * scale),
    ]
    for scenario, pair in runs.items():
        print(f"\n=== {TABLE2_SCENARIOS[scenario]} -- scenario '{scenario}' "
              f"(scale={scale}) ===")
        for label in ("vanilla", "dcc"):
            run = pair[label]
            print(f"\n--- {label.upper()} resolver: mean effective QPS per phase ---")
            print(render_table(["client"] + [p[0] for p in phases], summarize(run, phases)))
            for client in ("attacker", "heavy", "medium", "light"):
                print(f"  {client:>9s} |{sparkline(run.series(client))}|")
    return report_failures(failures(runs))
