"""Figure 4: empirical validation of adversarial congestion.

Four resolution setups (Figure 3), each swept over attacker request
rates, reporting the benign clients' average request success ratio:

- **(a) redundant authoritative servers**: two ANS for the target
  domain, channels capped at 100 QPS each; the attacker uses the FF
  amplification pattern (MAF ~= fanout^2 ~= 50), so benign requests
  collapse at attacker rates of only a few QPS.  The paper's additional
  lines (public resolvers with different amplification behaviour) are
  reproduced as resolver variants with different FF fan-outs.
- **(b) redundant resolvers**: clients retry across two resolvers;
  hardly helps, because failed requests are re-sent through the other
  resolver and congest its channel too.
- **(c) forwarding resolver**: no amplification (WC pattern); the
  forwarder uses three upstream resolvers (ingress limits 60/100/100
  QPS, mirroring Quad101 + defaults); the success ratio starts dropping
  once the attacker approaches the RR-channel capacity.
- **(d) large resolver system**: requests are load-balanced over an
  egress set; the attack's impact is inversely proportional to the
  egress-set size (4 / 16 / 25 / 60 egresses for UltraDNS / Quad9 /
  OpenDNS / Google).

Timeline per run (Section 2.3.1): the attacker sends for 50 s; benign
clients start 5 s later and send 3 QPS for 30 s.  ``time_scale``
compresses the timeline for quick runs.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.experiments.common import AttackScenario, ScenarioConfig, not_judged, report_failures
from repro.workloads.schedule import ClientSpec


@dataclass
class SweepPoint:
    attacker_qps: float
    benign_success: float


@dataclass
class SweepResult:
    label: str
    points: List[SweepPoint]

    def as_rows(self) -> List[List[object]]:
        return [[self.label, p.attacker_qps, round(p.benign_success, 2)] for p in self.points]


def _validation_specs(attacker_qps: float, pattern: str, time_scale: float) -> List[ClientSpec]:
    """Section 2.3.1 timeline: attacker 0-50 s, benign 5-35 s at 3 QPS."""
    return [
        ClientSpec("benign1", 5.0 * time_scale, 35.0 * time_scale, 3.0, "WC"),
        ClientSpec("benign2", 5.0 * time_scale, 35.0 * time_scale, 3.0, "WC"),
        ClientSpec("benign3", 5.0 * time_scale, 35.0 * time_scale, 3.0, "WC"),
        ClientSpec("attacker", 0.0, 50.0 * time_scale, attacker_qps, pattern, is_attacker=True),
    ]


def _base_config(time_scale: float, seed: int) -> ScenarioConfig:
    """What every setup shares: the 50 s timeline and 100-QPS channels."""
    return ScenarioConfig(seed=seed, duration=50.0 * time_scale, channel_capacity=100.0)


def _run_point(attacker_qps: float, pattern: str, time_scale: float, config: ScenarioConfig) -> float:
    scenario = AttackScenario(config)
    scenario.add_clients(_validation_specs(attacker_qps, pattern, time_scale))
    scenario.run()
    window = (6.0 * time_scale, 35.0 * time_scale)
    ratios = [
        scenario.clients[name].success_ratio(*window)
        for name in ("benign1", "benign2", "benign3")
    ]
    return sum(ratios) / len(ratios)


# ----------------------------------------------------------------------
# the four setups
# ----------------------------------------------------------------------

def run_setup_a(
    rates: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    fanouts: Sequence[int] = (7, 5, 9),
    time_scale: float = 1.0,
    seed: int = 42,
) -> List[SweepResult]:
    """Redundant authoritative servers, FF amplification attacker."""
    base = _base_config(time_scale, seed)
    results = []
    for fanout in fanouts:
        label = f"fanout={fanout} (MAF~{fanout * fanout})"
        config = replace(base, target_ans_count=2, ff_fanout=fanout)
        points = [SweepPoint(rate, _run_point(rate, "FF", time_scale, config)) for rate in rates]
        results.append(SweepResult(label, points))
    return results


def run_setup_b(
    rates: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    time_scale: float = 1.0,
    seed: int = 42,
) -> List[SweepResult]:
    """Redundant resolvers: retries spread congestion to both."""
    config = replace(_base_config(time_scale, seed), target_ans_count=2, resolver_count=2, client_attempts=2)
    points = [SweepPoint(rate, _run_point(rate, "FF", time_scale, config)) for rate in rates]
    return [SweepResult("2 resolvers (retry failover)", points)]


def run_setup_c(
    rates: Sequence[float] = (60, 70, 80, 90, 100, 110, 120, 130),
    time_scale: float = 1.0,
    seed: int = 42,
) -> List[SweepResult]:
    """Forwarder whose RR channels are the bottleneck (WC pattern).

    The forwarder's three upstreams enforce ingress limits of 60/100/100
    QPS; with failover, the effective capacity degrades gracefully, and
    the benign success ratio declines past the channel capacity.
    """
    base = _base_config(time_scale, seed)
    results = []
    for label, rr_cap, resolver_count in (
        ("3 upstreams (cap 100)", 100.0, 3),
        ("single upstream (cap 60)", 60.0, 1),
        ("single upstream (cap 100)", 100.0, 1),
    ):
        config = replace(
            base,
            with_forwarder=True,
            resolver_count=resolver_count,
            rr_channel_capacity=rr_cap,
            channel_capacity=100_000.0,  # RA channels uncongested here
        )
        points = [SweepPoint(rate, _run_point(rate, "WC", time_scale, config)) for rate in rates]
        results.append(SweepResult(label, points))
    return results


def run_setup_d(
    rates: Sequence[float] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    egress_sizes: Sequence[int] = (4, 16, 25, 60),
    time_scale: float = 1.0,
    seed: int = 42,
) -> List[SweepResult]:
    """Large resolver system: impact vs egress-set size (FF attacker)."""
    labels = {4: "UltraDNS-like (4)", 16: "Quad9-like (16)", 25: "OpenDNS-like (25)", 60: "Google-like (60)"}
    base = _base_config(time_scale, seed)
    results = []
    for size in egress_sizes:
        config = replace(base, with_forwarder=True, forwarder_rotate=True, resolver_count=size)
        points = [SweepPoint(rate, _run_point(rate, "FF", time_scale, config)) for rate in rates]
        results.append(SweepResult(labels.get(size, f"{size} egresses"), points))
    return results


def run_figure4(
    time_scale: float = 1.0,
    seed: int = 42,
    quick: bool = False,
) -> Dict[str, List[SweepResult]]:
    """All four subfigures; ``quick`` thins the sweeps."""
    a_rates = (1, 3, 5, 8) if quick else (1, 2, 3, 4, 5, 6, 7, 8)
    c_rates = (60, 90, 120) if quick else (60, 70, 80, 90, 100, 110, 120, 130)
    d_rates = (10, 30, 50) if quick else (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
    d_sizes = (4, 16) if quick else (4, 16, 25, 60)
    return {
        "a": run_setup_a(a_rates, fanouts=(7,) if quick else (7, 5, 9), time_scale=time_scale, seed=seed),
        "b": run_setup_b(a_rates, time_scale=time_scale, seed=seed),
        "c": run_setup_c(c_rates, time_scale=time_scale, seed=seed),
        "d": run_setup_d(d_rates, egress_sizes=d_sizes, time_scale=time_scale, seed=seed),
    }


#: (setup, sweep) -> what holds of benign success at the (lowest, highest) attacker rate run; the claim
_CLAIMS = {
    ("a", 0): (lambda low, high: low > 0.9 and high < 0.6, "a few amplified requests a second collapse benign service"),
    ("b", 0): (lambda low, high: high < min(low, 0.7), "a second resolver barely helps, retries congest it too"),
    ("c", 0): (lambda low, high: low > 0.9 > high, "success holds below the RR-channel capacity and drops above it"),
    ("c", 1): (lambda low, high: high < 0.7 and high <= low, "the 60-QPS upstream saturates at the top of the sweep"),
}


def failures(figure: Dict[str, List[SweepResult]]) -> List[str]:
    """The Figure 4 claims ``figure`` (``run_figure4``'s shape, any subset) does not show."""
    problems = []
    for (setup, index), (holds, claim) in _CLAIMS.items():
        if index >= len(figure.get(setup, [])):
            continue
        sweep = figure[setup][index]
        first, last = sweep.points[0], sweep.points[-1]
        if first is last:
            not_judged(f"Figure 4({setup}): {claim}", "one-point sweep")
        elif not holds(first.benign_success, last.benign_success):
            problems.append(f"Figure 4({setup}), {sweep.label}: {claim}; benign success is {first.benign_success:.2f} "
                            f"at {first.attacker_qps} QPS and {last.benign_success:.2f} at {last.attacker_qps} QPS")
    by_size = figure.get("d", [])
    if len(by_size) == 1:
        not_judged("Figure 4(d): impact is inversely proportional to the egress-set size", "one egress-set size")
    elif by_size and not by_size[-1].points[-1].benign_success >= by_size[0].points[-1].benign_success:
        problems.append(f"Figure 4(d): impact should be inversely proportional to the egress-set size, but "
                        f"{by_size[-1].label} fares worse than {by_size[0].label}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.provenance import provenance_header

    parser = argparse.ArgumentParser(
        prog="repro fig4", description="attack validation sweeps (setups a-d)")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="timeline compression (1.0 = 50-second runs)")
    parser.add_argument("--quick", action="store_true", help="thin the sweeps")
    args = parser.parse_args(argv)
    time_scale, quick = args.scale, args.quick
    print(provenance_header("fig4", scale=time_scale, config={"quick": quick}))
    figure = run_figure4(time_scale=time_scale, quick=quick)
    captions = {
        "a": "Figure 4(a) redundant auth servers (FF amplification)",
        "b": "Figure 4(b) redundant resolvers",
        "c": "Figure 4(c) forwarding resolver (WC, RR channel)",
        "d": "Figure 4(d) large resolver system (FF)",
    }
    for key, sweeps in figure.items():
        print(f"\n=== {captions[key]} ===")
        rows = [row for sweep in sweeps for row in sweep.as_rows()]
        print(render_table(["variant", "attacker QPS", "benign success ratio"], rows))
    return report_failures(failures(figure))
