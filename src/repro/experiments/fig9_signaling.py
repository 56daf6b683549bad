"""Figure 9: efficacy of DCC's in-band signaling on a resolution chain.

Topology (paper Section 5.1, "Efficacy of Signaling"): a DCC-enabled
forwarder serves the attacker, the heavy client and the light client; a
DCC-enabled recursive resolver serves the forwarder and, directly, the
medium client.  The forwarder->resolver channel is capped at 1000 QPS.
The attacker uses the NX pattern at 200 QPS (Figure 9a) or the FF
pattern at 20 QPS (Figure 9b).

With signaling **off**, the resolver can only see the *forwarder* as the
anomalous client: it polices the forwarder, and the heavy/light clients
are fate-sharing with the attacker (collateral damage).

With signaling **on**, the resolver attaches anomaly signals (with a
countdown) to its responses; the forwarder's DCC attributes them to the
true culprit and starts policing the attacker itself once the countdown
falls below its threshold (5) -- saving the innocuous clients.

The medium client talks to the resolver directly and should always get
its 350 QPS (< 1000/2); the rest goes to the forwarder.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import render_table, sparkline
from repro.experiments.common import AttackScenario, ScenarioConfig, ScenarioResult, report_failures
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.workloads.schedule import ClientSpec, FIGURE9_ATTACKER_RATES


@dataclass
class Figure9Run:
    scenario: str
    signaling: bool
    result: ScenarioResult


def _figure9_specs(scenario: str, time_scale: float) -> List[ClientSpec]:
    attacker_rate = FIGURE9_ATTACKER_RATES[scenario]
    attacker_pattern = "NX" if scenario == "nxdomain" else "FF"
    specs = [
        ClientSpec("heavy", 0.0, 60.0, 600.0, "WC"),
        ClientSpec("medium", 0.0, 50.0, 350.0, "WC"),
        ClientSpec("light", 20.0, 60.0, 150.0, "WC"),
        ClientSpec("attacker", 10.0, 60.0, attacker_rate, attacker_pattern, is_attacker=True),
    ]
    return [s.scaled(time_scale, 1.0) for s in specs]


def run_scenario(
    scenario: str, signaling: bool, scale: float = 1.0, seed: int = 42, countdown_threshold: int = 5
) -> Figure9Run:
    if scenario not in FIGURE9_ATTACKER_RATES:
        raise ValueError(f"scenario must be one of {sorted(FIGURE9_ATTACKER_RATES)}")
    config = ScenarioConfig(
        seed=seed,
        duration=60.0 * scale,
        channel_capacity=1000.0,
        rr_channel_capacity=1000.0,
        use_dcc=True,
        dcc_on_forwarder=True,
        dcc_signaling=signaling,
        with_forwarder=True,
        #: heavy, light and the attacker sit behind the forwarder; the
        #: medium client talks to the recursive resolver directly
        forwarded_clients=["heavy", "light", "attacker"],
        monitor=paper_monitor_config(time_scale=scale),
        policy_templates=paper_policy_templates(time_scale=scale),
        countdown_threshold=countdown_threshold,
        ff_instances=200,
    )
    scenario_obj = AttackScenario(config)
    scenario_obj.add_clients(_figure9_specs(scenario, scale))
    result = scenario_obj.run()
    return Figure9Run(scenario=scenario, signaling=signaling, result=result)


def run_figure9(scale: float = 1.0, seed: int = 42) -> Dict[str, Dict[str, Figure9Run]]:
    out: Dict[str, Dict[str, Figure9Run]] = {}
    for scenario in ("nxdomain", "amplification"):
        out[scenario] = {
            "off": run_scenario(scenario, signaling=False, scale=scale, seed=seed),
            "on": run_scenario(scenario, signaling=True, scale=scale, seed=seed),
        }
    return out


def collateral_damage(run: Figure9Run, scale: float) -> Dict[str, float]:
    """Success ratios of the forwarder's benign clients during the
    attack window -- the quantity signaling is meant to protect."""
    window = (25.0 * scale, 55.0 * scale)
    return {
        name: run.result.success_ratio(name, *window)
        for name in ("heavy", "light")
    }


def failures(runs: Dict[str, Dict[str, Figure9Run]]) -> List[str]:
    """The Figure 9 claims ``runs`` (``run_figure9``'s shape, any subset) does not show."""
    problems = []
    for scenario, pair in runs.items():
        scale = pair["on"].result.duration / 60.0
        off, on = collateral_damage(pair["off"], scale), collateral_damage(pair["on"], scale)
        if not off["heavy"] < 0.7:
            problems.append(f"Figure 9 ({scenario}): without signaling the forwarder's benign clients should share "
                            f"the attacker's fate, heavy still succeeds {off['heavy']:.2f}")
        if not (on["heavy"] > 0.75 and on["light"] > 0.7 and on["heavy"] > off["heavy"]):
            problems.append(f"Figure 9 ({scenario}): signaling should save the innocuous clients, heavy="
                            f"{on['heavy']:.2f} light={on['light']:.2f} (heavy with signaling off: {off['heavy']:.2f})")
        for mode in ("off", "on"):  # off: the collateral stays behind the forwarder (Figure 1)
            medium = pair[mode].result.success_ratio("medium", 25 * scale, 45 * scale)
            if not medium > 0.8:
                problems.append(f"Figure 9 ({scenario}, signaling {mode}): the direct medium client should be "
                                f"served, got {medium:.2f}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig9", description="signaling on/off on a forwarder chain")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    scale, seed = args.scale, args.seed
    print(provenance_header("fig9", seed=seed, scale=scale))
    runs = run_figure9(scale=scale, seed=seed)
    for scenario, pair in runs.items():
        caption = "Figure 9(a)" if scenario == "nxdomain" else "Figure 9(b)"
        print(f"\n=== {caption} -- attacker pattern "
              f"{'NX @200 QPS' if scenario == 'nxdomain' else 'FF @20 QPS'} ===")
        for label in ("off", "on"):
            run = pair[label]
            print(f"\n--- signaling {label.upper()} ---")
            rows = []
            for client in ("attacker", "heavy", "medium", "light"):
                series = run.result.effective_qps[client]
                mid = series[int(25 * scale):int(55 * scale)]
                rows.append([client, round(sum(mid) / max(1, len(mid)))])
            print(render_table(["client", "mean eff. QPS (25-55s)"], rows))
            damage = collateral_damage(run, scale)
            print(f"    benign-behind-forwarder success: "
                  f"heavy={damage['heavy']:.2f} light={damage['light']:.2f}")
            for client in ("attacker", "heavy", "medium", "light"):
                print(f"  {client:>9s} |{sparkline(run.result.effective_qps[client])}|")
    return report_failures(failures(runs))
