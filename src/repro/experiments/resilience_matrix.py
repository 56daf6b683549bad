"""Resilience matrix: resolver configurations x fault plans, one NX flood.

The paper's evaluation (Figures 8/9) assumes the resolution
infrastructure stays healthy while adversarial congestion rages.  This
driver drops that assumption the way Rizvi et al. evaluate layered
root-DNS defenses: every defense cell runs under the *same* fault
events and client load, one table per fault plan.  A plan is data -- the
client specs, a :mod:`repro.netsim.faults` schedule and the start of
the pre-fault baseline window, all in unscaled (paper-timeline) seconds
-- and a cell is a set of :class:`ScenarioConfig` overrides:

- ``vanilla`` -- the seed resolver exactly: fixed 0.8 s timeout, EWMA
  SRTT, blind hold-down, unbounded pending table, no stale answers;
- ``dcc`` -- the vanilla resolver under the DCC shim;
- ``hardened`` -- adaptive RTO (RFC 6298) + three-state circuit
  breakers + watermark admission control + per-request deadlines +
  serve-stale (pre-resolution fast path while breakers are open);
- ``hardened+dcc`` -- the hardened resolver with the DCC shim on top,
  so admission control sheds *suspected* clients first (the monitor
  convicts the NX abuser) instead of shedding blindly.

The two plans:

- ``total-outage`` x {vanilla, hardened, hardened+dcc}: *every* target
  nameserver crashes mid-flood, so fresh resolution of the benign names
  is impossible.  Benign clients query a bounded name pool ("WC_POOL"),
  the popular-names regime where caches -- and RFC 8767 serve-stale --
  help.  The question for ``server/health.py`` + ``server/overload.py``:
  how much benign service does each configuration retain?
- ``crash-ramp`` x {vanilla, dcc}: the primary target nameserver
  crashes and the path to its surviving replica degrades (a loss /
  latency ramp), then everything heals.  Benign clients ask unique
  names ("WC"), so capacity halves under them.  The question for DCC:
  fair queuing should keep dividing the *remaining* capacity evenly
  instead of letting the attacker starve benign clients harder.

Reported per cell: benign availability (overall and inside the fault
window), benign goodput before/during/after the fault, attacker goodput
during it, recovery time (seconds from the fault clearing until
smoothed benign goodput regains 95% of its pre-fault baseline), the
resilience counters (breaker transitions, stale answers, sheds,
deadline expiries) and per-second goodput sparklines.  ``scale``
compresses the timeline only (rates stay at paper values).

CLI: ``python -m repro resilience [--scale S] [--seed N] [--out F]``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import (
    render_resilience_table,
    render_table,
    resilience_counters,
    sparkline,
)
from repro.experiments.common import (
    RESOLVER_ADDR,
    AttackScenario,
    ScenarioConfig,
    ScenarioResult,
    target_ans_addr,
)
from repro.experiments.fig8_resilience import (
    paper_monitor_config,
    paper_policy_templates,
)
from repro.netsim.faults import (
    FaultSpec,
    FaultStats,
    LinkDegradation,
    NodeOutage,
    fault_span,
)
from repro.netsim.trace import MessageTrace
from repro.server.health import HealthConfig
from repro.server.overload import OverloadConfig, ShedPolicy
from repro.server.resolver import ResolverConfig
from repro.workloads.schedule import ClientSpec

BENIGN_CLIENTS = ("heavy", "medium", "light")

#: goodput must regain this fraction of the pre-fault baseline to count
#: as recovered
RECOVERY_THRESHOLD = 0.95

#: the cast's two target nameservers and its resolver
#: (``target_ans_count=2``, ``resolver_count=1``)
PRIMARY_ANS, REPLICA_ANS, RESOLVER = target_ans_addr(0), target_ans_addr(1), RESOLVER_ADDR


def hardened_resolver_config() -> ResolverConfig:
    """The hardened cells: every mechanism of the resilience layer on.

    Time constants are *unscaled*: they are tied to RTTs and client
    patience (2 s request timeout), which the experiment drivers never
    scale -- only the fault schedule and run length compress.
    """
    return ResolverConfig(
        serve_stale_window=30.0,
        health=HealthConfig(
            mode="adaptive",
            base_timeout=0.8,
            failure_threshold=3,
            rto_min=0.1,
            # No point arming timers past the clients' own 2 s patience.
            rto_max=2.0,
            backoff_base=0.5,
            backoff_cap=3.0,
        ),
        overload=OverloadConfig(
            # Low enough that the outage's onset transient (before the
            # breakers trip) actually engages shedding.
            high_watermark=256,
            low_watermark=128,
            shed_policy=ShedPolicy.SERVFAIL,
            serve_stale=True,
            request_deadline=1.8,
        ),
    )


#: cell -> (hardened resolver config, DCC shim): the ScenarioConfig
#: fields a cell overrides
CELLS: Mapping[str, Tuple[bool, bool]] = {
    "vanilla": (False, False),
    "dcc": (False, True),
    "hardened": (True, False),
    "hardened+dcc": (True, True),
}


def _clients(pattern: str, attack_start: float) -> Tuple[ClientSpec, ...]:
    """Table 2 rates, but benign clients span the whole run so goodput
    windows before/during/after the fault are comparable."""
    return (
        ClientSpec("heavy", 0.0, 60.0, 600.0, pattern),
        ClientSpec("medium", 0.0, 60.0, 350.0, pattern),
        ClientSpec("light", 0.0, 60.0, 150.0, pattern),
        ClientSpec("attacker", attack_start, 60.0, 1100.0, "NX", is_attacker=True),
    )


@dataclass(frozen=True)
class Plan:
    """One fault experiment, in unscaled (paper-timeline) seconds."""

    name: str
    #: what happens inside the fault window, for the report
    summary: str
    clients: Tuple[ClientSpec, ...]
    schedule: Tuple[FaultSpec, ...]
    cells: Tuple[str, ...]
    #: the pre-fault goodput window runs from here to the first fault;
    #: later than the attack start, to skip the attack-onset transient
    baseline_from: float
    #: (challenger, reference): the verdict line, and for the first plan
    #: the exit status, is whether the challenger's fault-window goodput
    #: beats the reference's
    compare: Tuple[str, str]

    @property
    def window(self) -> Tuple[float, float]:
        span = fault_span(self.schedule)
        if span is None:
            raise ValueError(f"plan {self.name!r} has no faults")
        return span


TOTAL_OUTAGE = Plan(
    name="total-outage",
    summary="every target nameserver dark; NX flood runs throughout",
    # bounded name pool: cacheable, and stale-servable
    clients=_clients("WC_POOL", attack_start=5.0),
    schedule=(
        NodeOutage(address=PRIMARY_ANS, at=25.0, duration=15.0),
        NodeOutage(address=REPLICA_ANS, at=25.0, duration=15.0),
    ),
    cells=("vanilla", "hardened", "hardened+dcc"),
    baseline_from=10.0,
    compare=("hardened", "vanilla"),
)

CRASH_RAMP = Plan(
    name="crash-ramp",
    summary="primary target nameserver down for the first 15 s; path to "
    "its replica ramps to +35% loss / +20 ms",
    clients=_clients("WC", attack_start=10.0),
    schedule=(
        NodeOutage(address=PRIMARY_ANS, at=25.0, duration=15.0),
        LinkDegradation(
            src=RESOLVER, dst=REPLICA_ANS, start=25.0, end=45.0,
            loss=0.35, latency=0.020, ramp=5.0,
        ),
    ),
    cells=("vanilla", "dcc"),
    baseline_from=15.0,
    compare=("dcc", "vanilla"),
)

PLANS = (TOTAL_OUTAGE, CRASH_RAMP)

#: every timeline field of a fault spec (``loss`` is a probability;
#: ``latency`` and ``jitter`` are RTT-tied and stay at paper values)
_TIME_FIELDS = ("at", "duration", "start", "end", "ramp")


def _compressed(spec: FaultSpec, scale: float) -> FaultSpec:
    """``spec`` on a timeline compressed by ``scale``."""
    return replace(
        spec,
        **{f: getattr(spec, f) * scale for f in _TIME_FIELDS if hasattr(spec, f)},
    )


def cell_scenario_config(cell: str, scale: float, seed: int) -> ScenarioConfig:
    if cell not in CELLS:
        raise ValueError(f"unknown matrix cell {cell!r} (want one of {tuple(CELLS)})")
    hardened, use_dcc = CELLS[cell]
    return ScenarioConfig(
        seed=seed,
        duration=60.0 * scale,
        channel_capacity=1000.0,
        use_dcc=use_dcc,
        monitor=paper_monitor_config(time_scale=scale),
        policy_templates=paper_policy_templates(time_scale=scale),
        target_ans_count=2,
        resolver_config=hardened_resolver_config() if hardened else None,
    )


def build_cell(cell: str, plan: Plan, scale: float, seed: int) -> AttackScenario:
    """One matrix cell, built and fault-scheduled but not yet run."""
    scenario = AttackScenario(cell_scenario_config(cell, scale, seed))
    scenario.add_clients([spec.scaled(scale) for spec in plan.clients])
    for fault in plan.schedule:
        scenario.injector.add(_compressed(fault, scale))
    return scenario


@dataclass
class CellRun:
    """One (plan, cell) run plus its derived metrics."""

    cell: str
    result: ScenarioResult
    fault_start: float
    fault_end: float
    availability: float
    fault_availability: float
    baseline_goodput: float
    fault_goodput: float
    post_goodput: float
    attacker_fault_goodput: float
    recovery_time: Optional[float]
    goodput_series: List[float]
    attacker_series: List[float]
    resilience_counters: Dict[str, int]
    fault_stats: FaultStats
    timeline: str

    def metrics(self) -> Dict[str, object]:
        """The headline numbers (also what the results artifact records)."""
        out: Dict[str, object] = {
            "availability": self.availability,
            "fault_availability": self.fault_availability,
            "baseline_goodput": self.baseline_goodput,
            "fault_goodput": self.fault_goodput,
            "post_goodput": self.post_goodput,
            "attacker_fault_goodput": self.attacker_fault_goodput,
            "recovery_time": self.recovery_time,
            "crashes": self.fault_stats.crashes,
            "recoveries": self.fault_stats.recoveries,
        }
        out.update(self.resilience_counters)
        return out


def benign_goodput_series(result: ScenarioResult, bucket: float) -> List[float]:
    """Summed effective QPS of the benign clients, bucketed."""
    per_client = [
        result.clients[name].effective_qps_series(result.duration, bucket=bucket)
        for name in BENIGN_CLIENTS
    ]
    return [sum(column) for column in zip(*per_client)]


def _mean_over(series: List[float], bucket: float, lo: float, hi: float) -> float:
    lo_i, hi_i = int(lo / bucket), min(int(hi / bucket), len(series))
    window = series[lo_i:hi_i]
    return sum(window) / max(1, len(window))


def _smooth(series: List[float]) -> List[float]:
    """Three-bucket moving average (shorter at the edges)."""
    out = []
    for i in range(len(series)):
        window = series[max(0, i - 1): i + 2]
        out.append(sum(window) / len(window))
    return out


def recovery_time(
    series: List[float], bucket: float, fault_end: float, baseline: float
) -> Optional[float]:
    """Seconds from ``fault_end`` until smoothed goodput regains
    ``RECOVERY_THRESHOLD * baseline``; None if it never does in-series
    or there is no positive baseline to regain."""
    if baseline <= 0:
        return None
    target = RECOVERY_THRESHOLD * baseline
    for i, value in enumerate(_smooth(series)):
        at = i * bucket
        if at >= fault_end and value >= target:
            return at - fault_end
    return None


def _availability(result: ScenarioResult, lo: float, hi: float) -> float:
    total = successes = 0
    for name in BENIGN_CLIENTS:
        for record in result.clients[name].records:
            if lo <= record.sent_at < hi:
                total += 1
                successes += 1 if record.success else 0
    return successes / total if total else 0.0


def run_cell(cell: str, plan: Plan, scale: float = 1.0, seed: int = 42) -> CellRun:
    scenario = build_cell(cell, plan, scale, seed)
    result = scenario.run()
    bucket = 1.0 * scale
    fault_start, fault_end = (edge * scale for edge in plan.window)
    goodput = benign_goodput_series(result, bucket)
    baseline = _mean_over(goodput, bucket, plan.baseline_from * scale, fault_start)
    attacker = result.clients["attacker"].effective_qps_series(
        result.duration, bucket=bucket
    )
    return CellRun(
        cell=cell,
        result=result,
        fault_start=fault_start,
        fault_end=fault_end,
        availability=_availability(result, 0.0, result.duration),
        fault_availability=_availability(result, fault_start, fault_end),
        baseline_goodput=baseline,
        fault_goodput=_mean_over(goodput, bucket, fault_start, fault_end),
        post_goodput=_mean_over(goodput, bucket, fault_end, result.duration),
        attacker_fault_goodput=_mean_over(attacker, bucket, fault_start, fault_end),
        recovery_time=recovery_time(goodput, bucket, fault_end, baseline),
        goodput_series=goodput,
        attacker_series=attacker,
        resilience_counters=resilience_counters(result.resolver_stats[0]),
        fault_stats=scenario.injector.stats,
        timeline=scenario.injector.render_timeline(),
    )


def run_plan(plan: Plan, scale: float = 1.0, seed: int = 42) -> Dict[str, CellRun]:
    """Every cell of ``plan`` under the identical fault schedule and load."""
    return {cell: run_cell(cell, plan, scale=scale, seed=seed) for cell in plan.cells}


def challenger_wins(plan: Plan, runs: Mapping[str, CellRun]) -> bool:
    challenger, reference = plan.compare
    return runs[challenger].fault_goodput > runs[reference].fault_goodput


def cell_digest(cell: str, scale: float = 0.05, seed: int = 42) -> str:
    """SHA-256 over one ``total-outage`` cell's delivered-message trace.

    Two fresh runs with the same seed must hash identically (the
    selfcheck property extended to the resilience layer's code surface
    -- breaker jitter, stale paths, shedding decisions all feed the
    trace).
    """
    scenario = build_cell(cell, TOTAL_OUTAGE, scale, seed)
    trace = MessageTrace(scenario.net)
    result = scenario.run()
    return trace.sha256(result.events_processed).hexdigest()


def render_report(plan: Plan, runs: Mapping[str, CellRun]) -> str:
    any_run = next(iter(runs.values()))
    lines = [
        f"=== Resilience matrix, plan {plan.name}: {plan.summary} ===",
        f"\nfault window [{any_run.fault_start:.2f}s, {any_run.fault_end:.2f}s); "
        "schedule (identical for every cell):",
        any_run.timeline,
    ]

    rows = []
    for cell, run in runs.items():
        recovered = (
            f"{run.recovery_time:.1f}s" if run.recovery_time is not None else "never"
        )
        rows.append(
            [
                cell,
                f"{run.availability:.3f}",
                f"{run.fault_availability:.3f}",
                round(run.baseline_goodput),
                round(run.fault_goodput),
                round(run.post_goodput),
                round(run.attacker_fault_goodput),
                recovered,
            ]
        )
    lines.append("\nbenign availability and goodput (summed effective QPS):")
    lines.append(
        render_table(
            [
                "cell",
                "avail(all)",
                "avail(fault)",
                "goodput pre",
                "fault",
                "post",
                "atk(fault)",
                "recovery",
            ],
            rows,
        )
    )

    lines.append("\nresilience-layer counters (first resolver):")
    lines.append(
        render_resilience_table(
            {cell: run.result.resolver_stats[0] for cell, run in runs.items()}
        )
    )

    lines.append("\nper-second series (the fault window is the dip):")
    for cell, run in runs.items():
        lines.append(f"  {cell:>12s} benign   |{sparkline(run.goodput_series)}|")
        lines.append(f"  {cell:>12s} attacker |{sparkline(run.attacker_series)}|")

    challenger, reference = plan.compare
    verdict = (
        f"{challenger} retains benign service through the fault"
        if challenger_wins(plan, runs)
        else f"WARNING: {challenger} did not beat {reference} during the fault"
    )
    lines.append(
        f"\n{verdict}: {round(runs[challenger].fault_goodput)} vs "
        f"{round(runs[reference].fault_goodput)} benign QPS ({reference})."
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Print every plan's table; exit 0 iff ``total-outage``'s challenger
    (hardened) beats its reference (vanilla)."""
    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description="fault matrix under an NX flood: vanilla/hardened/hardened+dcc "
        "through a total authoritative outage, vanilla/dcc through a "
        "primary crash + loss ramp",
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    scale, seed, out = args.scale, args.seed, args.out
    if scale <= 0:
        raise SystemExit(f"--scale must be positive, got {scale}")
    from repro.analysis.provenance import provenance_header

    results = {plan.name: run_plan(plan, scale=scale, seed=seed) for plan in PLANS}
    sections = [provenance_header("resilience", seed=seed, scale=scale)]
    sections.extend(render_report(plan, results[plan.name]) for plan in PLANS)
    report = "\n\n".join(sections)
    print(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"\n[written to {out}]")
    return 0 if challenger_wins(TOTAL_OUTAGE, results[TOTAL_OUTAGE.name]) else 1
