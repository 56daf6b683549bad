"""``repro chaos``: one fault plan, either backend, recovery SLOs.

A **plan** is one JSON-able dict: a :mod:`repro.netsim.faults` schedule
(``faults``), ``duration``, the DCC ``channel_capacity``, the number of
target nameservers (``targets``), the open-loop ``rates`` of the pool,
fresh and attack clients, the resolver configurations to run it under
(``cells``, see :data:`CELLS`), an optional ``compare`` pair
``[challenger, reference]`` and an optional ``time_scale`` (default 1):
the compression of the plan's timeline, which the DCC monitor window,
suspicion period and policy durations follow.  Every cell replays the
*same* faults under the *same* load -- the layered-defence comparison of
Rizvi et al. (PAPERS.md) -- on the Figure 3 cast that
:class:`~repro.experiments.common.AttackScenario` builds on either
backend, and gets its own :class:`~repro.chaos.slo.RecoveryAuditor`.
Live faults are played by :mod:`repro.chaos.orchestrator`.

The **pool** client re-asks a few wildcard names (TTL 1 s: during an
outage these hit RFC 8767 serve-stale), the **fresh** client asks unique
names (no cache to fall back on: its recovery is what MTTR measures) and
the NX attacker supplies adversarial load for DCC; only the benign
clients are audited, and a client whose rate is 0 is not built.

Determinism contract: the metrics JSON written by ``--metrics-out`` --
one entry per cell -- is *byte-identical* across same-seed runs on the
same backend: samples are classified by seeded nominal send time,
boundary-ambiguous samples fall in guard bands, and the document goes
through :func:`repro.obs.export.canonical_json`.  ``--check-against``
compares it with a previous run's; ``--slo`` gates each cell on the
recovery floors, ``--min-goodput`` on its fault-window goodput, and a
plan's ``compare`` on the challenger beating the reference there.  With
an empty schedule (``examples/chaos_none.json``) the live backend is the
real-socket smoke (docs/TRANSPORT.md).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import render_resilience_table
from repro.chaos import LiveChaosOrchestrator, RecoveryAuditor, SloConfig
from repro.chaos.slo import GUARD, LADDER_GUARD
from repro.dnscore.name import Name
from repro.experiments.common import (
    RESOLVER_ADDR,
    ROOT_ADDR,
    TARGET_ANS_ADDR,
    TARGET_ORIGIN,
    AttackScenario,
    ScenarioConfig,
    target_ans_addr,
)
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.netsim.faults import (
    FaultSpec,
    LinkDegradation,
    NodeOutage,
    Partition,
    fault_span,
    schedule_from_dicts,
    schedule_to_dicts,
)
from repro.obs import Observability
from repro.obs.export import canonical_json, metrics_jsonl
from repro.server.health import HealthConfig
from repro.server.overload import OverloadConfig, ShedPolicy
from repro.server.resolver import ResolverConfig, ResolverStats
from repro.transport.base import TransportBackend
from repro.transport.engine import EngineClient, EngineConfig
from repro.transport.udp import UdpBackend

POOL_ADDR = "10.0.9.1"
FRESH_ADDR = "10.0.9.2"
ATTACK_ADDR = "10.0.9.66"

#: names the pool client cycles through (each stays cached + goes stale)
POOL_SIZE = 8
#: how long a client waits for one query's verdict (seconds)
CLIENT_DEADLINE = 4.0

#: extra real/virtual time after the send phase for verdict tails
_DRAIN_GRACE = 1.0
#: seeded inter-arrival jitter can push the last nominal send past
#: ``duration`` by a small random walk; the harvest horizon covers it
_NOMINAL_SLACK = 1.5

#: cell -> (hardened resolver, DCC shim)
CELLS: Mapping[str, Tuple[bool, bool]] = {
    "vanilla": (False, False),
    "dcc": (False, True),
    "hardened": (True, False),
    "hardened+dcc": (True, True),
}

#: the keys every plan has
PLAN_KEYS = ("faults", "duration", "channel_capacity", "targets", "rates", "cells")
#: the keys a plan may have
OPTIONAL_KEYS = ("compare", "time_scale")


def _pool_name(i: int) -> Name:
    return Name.from_text(f"p{i % POOL_SIZE}.wc.{TARGET_ORIGIN}")


def _fresh_name(i: int) -> Name:
    return Name.from_text(f"f{i:05d}.wc.{TARGET_ORIGIN}")


def _attack_name(i: int) -> Name:
    return Name.from_text(f"x{i:05d}.nx.{TARGET_ORIGIN}")


#: a plan's ``rates`` keys, in build order: (role, address, i-th query name)
ROLES = (
    ("pool", POOL_ADDR, _pool_name),
    ("fresh", FRESH_ADDR, _fresh_name),
    ("attack", ATTACK_ADDR, _attack_name),
)


def default_schedule() -> List[FaultSpec]:
    """All three fault kinds over one [3 s, 6 s) envelope.

    The outage is the total authoritative failure the acceptance
    criterion names; the partition cuts resolver<->root (invisible to
    verdicts while the referral is cached -- it exercises the severing
    machinery); the delay-only degradation ramps added latency onto the
    resolver<->target channel without ever flipping a verdict.
    """
    return [
        NodeOutage(address=TARGET_ANS_ADDR, at=3.0, duration=3.0),
        Partition(a=ROOT_ADDR, b=RESOLVER_ADDR, start=3.0, end=6.0),
        LinkDegradation(
            src=RESOLVER_ADDR, dst=TARGET_ANS_ADDR,
            start=3.0, end=6.0, latency=0.010, ramp=1.0,
        ),
    ]


def matrix_plans(scale: float = 0.25) -> Dict[str, Dict[str, Any]]:
    """The resilience matrix on the Table 2 load, its 60 s timeline
    compressed by ``scale`` (rates stay at paper values): 1 100 benign
    QPS on one client and 1 100 NX QPS against 1 000 QPS of capacity
    towards two target nameservers.  The DCC monitor and policies run on
    the same compressed timeline (``time_scale``), so the NX attacker is
    convicted and rate-limited before the fault starts.

    - ``total-outage``: both targets dark from 25 s for 15 s; the benign
      load re-asks a cached pool, where serve-stale helps.  Hardened must
      beat vanilla.
    - ``crash-ramp``: the primary target down from 25 s for 15 s while
      the path to its replica ramps to +35 % loss / +20 ms until 45 s;
      unique benign names, so capacity halves under them.  DCC must beat
      vanilla.
    - ``resolver-crash``: the resolver itself down from 25 s for 15 s,
      losing its cache, pending table and DCC state; each cell is judged
      by the recovery SLO (``--slo``).
    """
    primary, replica = target_ans_addr(0), target_ans_addr(1)
    at, length = 25.0 * scale, 15.0 * scale

    def plan(faults: List[FaultSpec], cells: List[str], compare: Optional[List[str]],
             pool: float = 0.0, fresh: float = 0.0) -> Dict[str, Any]:
        return {
            "faults": schedule_to_dicts(faults),
            "duration": 60.0 * scale,
            "channel_capacity": 1000.0,
            "targets": 2,
            "rates": {"pool": pool, "fresh": fresh, "attack": 1100.0},
            "cells": cells,
            "time_scale": scale,
            **({"compare": compare} if compare else {}),
        }

    return {
        "total-outage": plan(
            [NodeOutage(address=primary, at=at, duration=length),
             NodeOutage(address=replica, at=at, duration=length)],
            ["vanilla", "hardened", "hardened+dcc"], ["hardened", "vanilla"], pool=1100.0,
        ),
        "crash-ramp": plan(
            [NodeOutage(address=primary, at=at, duration=length),
             LinkDegradation(src=RESOLVER_ADDR, dst=replica, start=at, end=45.0 * scale,
                             loss=0.35, latency=0.020, ramp=5.0 * scale)],
            ["vanilla", "dcc"], ["dcc", "vanilla"], fresh=1100.0,
        ),
        "resolver-crash": plan(
            [NodeOutage(address=RESOLVER_ADDR, at=at, duration=length)],
            ["vanilla", "dcc"], None, fresh=1100.0,
        ),
    }


#: ``--plan NAME``; ``default`` is also checked in as
#: ``examples/chaos_schedule.json``
PLANS: Dict[str, Dict[str, Any]] = {
    "default": {
        "faults": schedule_to_dicts(default_schedule()),
        "duration": 10.0,
        "channel_capacity": 300.0,
        "targets": 1,
        "rates": {"pool": 15.0, "fresh": 15.0, "attack": 40.0},
        "cells": ["hardened+dcc"],
    },
    **matrix_plans(),
}


def check_plan(plan: Mapping[str, Any]) -> None:
    """Raise ValueError unless ``plan`` is well formed."""
    missing = [key for key in PLAN_KEYS if key not in plan]
    unknown = sorted(set(plan) - set(PLAN_KEYS) - set(OPTIONAL_KEYS))
    if missing or unknown:
        raise ValueError(f"plan: missing keys {missing}, unknown keys {unknown}")
    if sorted(plan["rates"]) != sorted(role for role, _, _ in ROLES):
        raise ValueError(f"plan rates must name pool, fresh and attack, got {sorted(plan['rates'])}")
    cells = plan["cells"]
    bad = [cell for cell in cells if cell not in CELLS]
    if not cells or bad:
        raise ValueError(f"unknown matrix cell(s) {bad} (want some of {tuple(CELLS)})")
    compare = plan.get("compare")
    if compare is not None and (len(compare) != 2 or not set(compare) <= set(cells)):
        raise ValueError(f"compare {compare} must name [challenger, reference] among cells {cells}")


def load_plan(spec: str) -> Dict[str, Any]:
    """A built-in plan by name, otherwise a JSON plan file."""
    if spec in PLANS:
        return PLANS[spec]
    with open(spec, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class ChaosConfig:
    backend: str = "sim"
    seed: int = 1
    slo: SloConfig = field(default_factory=SloConfig)
    #: gate the exit status on the SLO floors (otherwise report-only)
    enforce_slo: bool = False


@dataclass
class ChaosReport:
    """One cell's run: the audit plus everything around it."""

    config: ChaosConfig
    auditor: RecoveryAuditor
    #: the first resolver's counters, for the resilience-layer table
    resolver: ResolverStats
    #: seed-pure keys merged into the cell's metrics document
    extra: Dict[str, Any] = field(default_factory=dict)
    #: timing-sensitive observations (report-only, never in the gate)
    info: Dict[str, Any] = field(default_factory=dict)
    timeline: List[str] = field(default_factory=list)
    liveness: List[str] = field(default_factory=list)
    loop_errors: List[str] = field(default_factory=list)

    def document(self) -> Dict[str, Any]:
        """This cell's entry in the canonical metrics document."""
        return dict(self.auditor.metrics(), **self.extra)

    def failures(self) -> List[str]:
        problems = list(self.liveness)
        problems.extend(f"event-loop error: {err}" for err in self.loop_errors)
        if self.config.enforce_slo:
            problems.extend(self.auditor.failures())
        return problems


def canonical_metrics(reports: Mapping[str, ChaosReport]) -> str:
    """The byte-stable metrics document of one run, keyed by cell."""
    return canonical_json({cell: report.document() for cell, report in reports.items()})


def _client_engine_config() -> EngineConfig:
    # rto_min above the resolver's worst-case answer latency, so a
    # client verdict depends only on *whether* the resolver answers (a
    # seeded-fault function), never on wall-clock answer timing
    return EngineConfig(
        retries=1,
        deadline=CLIENT_DEADLINE,
        inflight_capacity=512,
        health=HealthConfig(
            mode="adaptive", base_timeout=3.0, rto_min=3.0, rto_max=3.5,
            failure_threshold=0,
        ),
    )


def hardened_resolver_config() -> ResolverConfig:
    """The hardened cells: adaptive RTO + circuit breaker + RFC 8767
    serve-stale + admission control.

    rto_max bounds the three-attempt retry ladder at 0.3 + 0.5 + 0.5 =
    1.3 s -- inside the SLO ladder_guard (1.5 s), so a ladder started
    before the heal boundary's guard band cannot resolve after it;
    backoff_cap keeps the breaker's last open interval short enough to
    re-close inside the heal_guard (2.5 s).  The watermarks are low
    enough that an outage's onset transient (before the breakers trip)
    engages shedding; the request deadline answers well inside the
    clients' own :data:`CLIENT_DEADLINE`.
    """
    return ResolverConfig(
        qname_minimization=False,
        max_retries=2,
        serve_stale_window=45.0,
        health=HealthConfig(
            mode="adaptive", base_timeout=0.3, rto_min=0.1, rto_max=0.5,
            failure_threshold=3, backoff_base=0.3, backoff_cap=0.8,
        ),
        overload=OverloadConfig(
            high_watermark=256, low_watermark=128, shed_policy=ShedPolicy.SERVFAIL,
            serve_stale=True, request_deadline=1.8,
        ),
    )


def _horizon(plan: Mapping[str, Any]) -> float:
    return plan["duration"] + _NOMINAL_SLACK + CLIENT_DEADLINE + _DRAIN_GRACE


def _build(
    cfg: ChaosConfig,
    plan: Mapping[str, Any],
    cell: str,
    backend: Optional[TransportBackend] = None,
) -> Tuple[AttackScenario, Dict[str, EngineClient]]:
    """The Figure 3 cast on ``backend`` (None: the simulator) configured
    as ``cell``, plus the plan's clients by role."""
    hardened, use_dcc = CELLS[cell]
    time_scale = plan.get("time_scale", 1.0)
    # answer TTL 1 s: pool entries expire between revisits, so during the
    # outage the pool exercises serve-stale rather than plain cache hits
    scenario = AttackScenario(
        ScenarioConfig(
            seed=cfg.seed,
            duration=plan["duration"],
            channel_capacity=plan["channel_capacity"],
            use_dcc=use_dcc,
            monitor=paper_monitor_config(time_scale=time_scale),
            policy_templates=paper_policy_templates(time_scale=time_scale),
            target_ans_count=plan["targets"],
            answer_ttl=1,
            resolver_config=hardened_resolver_config() if hardened else None,
        ),
        backend,
    )
    engine_cfg = _client_engine_config()
    clients: Dict[str, EngineClient] = {}
    for role, address, name_of in ROLES:
        rate = plan["rates"][role]
        if rate <= 0:
            continue
        client = EngineClient(
            address, RESOLVER_ADDR, name_of,
            rate=rate, total=max(1, int(rate * plan["duration"])), config=engine_cfg,
        )
        scenario.net.attach(client)
        clients[role] = client
    return scenario, clients


def _harvest(
    cfg: ChaosConfig,
    plan: Mapping[str, Any],
    scenario: AttackScenario,
    clients: Dict[str, EngineClient],
    faults: List[FaultSpec],
    timeline: List[str],
) -> ChaosReport:
    duration = plan["duration"]
    # no faults: the whole run is "pre"; SLO gating will report the
    # missing recovery window rather than inventing one
    span = fault_span(faults) or (duration, duration)
    auditor = RecoveryAuditor(span, duration, cfg.slo)
    for role in ("pool", "fresh"):
        if role in clients:
            auditor.add_samples(clients[role].samples)

    report = ChaosReport(
        config=cfg, auditor=auditor, resolver=scenario.resolvers[0].stats, timeline=timeline,
    )
    for client in clients.values():
        if client.engine is not None:
            report.liveness.extend(
                f"{client.address}: {item}"
                for item in client.engine.liveness_violations(grace=_DRAIN_GRACE)
            )
        if not client.finished:
            report.liveness.append(
                f"{client.address}: {client.sent} sent but only "
                f"{sum(client.verdicts.values())} verdicts at harvest"
            )
    report.extra = {
        "backend": cfg.backend,
        "seed": cfg.seed,
        "duration": duration,
        "workload": {
            f"{role}_sent": clients[role].sent if role in clients else 0
            for role, _, _ in ROLES
        },
        "schedule": schedule_to_dicts(faults),
    }
    report.info = {
        f"{role}_verdicts": dict(sorted(client.verdicts.items()))
        for role, client in clients.items()
        if role != "attack"
    }
    if scenario.shims:
        report.info["dcc_intercepted"] = scenario.shims[0].stats.queries_intercepted
        report.info["dcc_policed"] = scenario.shims[0].stats.queries_policed
    report.info["auth_queries"] = scenario.target_ans[0].stats.queries_received
    return report


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
def _run_sim(
    cfg: ChaosConfig, plan: Mapping[str, Any], cell: str, faults: List[FaultSpec]
) -> ChaosReport:
    scenario, clients = _build(cfg, plan, cell)
    injector = scenario.injector
    for spec in faults:
        injector.add(spec)
    for client in clients.values():
        client.start()
    scenario.sim.run(until=_horizon(plan))
    timeline = [f"{t:8.3f}s  {label}" for t, label in sorted(injector.timeline)]
    report = _harvest(cfg, plan, scenario, clients, faults, timeline)
    for key in ("crashes", "recoveries", "partition_cuts", "degraded_messages"):
        report.info[key] = getattr(injector.stats, key)
    return report


async def _run_live_async(
    cfg: ChaosConfig, plan: Mapping[str, Any], cell: str, faults: List[FaultSpec]
) -> ChaosReport:
    backend = UdpBackend(seed=cfg.seed)
    scenario, clients = _build(cfg, plan, cell, backend)
    await backend.start()

    orchestrator = LiveChaosOrchestrator(backend.fabric, backend.clock, cfg.seed)
    await orchestrator.apply(faults)

    loop = asyncio.get_running_loop()
    loop_errors: List[str] = []
    loop.set_exception_handler(
        lambda _loop, ctx: loop_errors.append(
            str(ctx.get("exception") or ctx.get("message"))
        )
    )

    for client in clients.values():
        client.start()
    clock = backend.clock
    hard_stop = _horizon(plan)
    while clock.now < hard_stop:
        await asyncio.sleep(0.05)
        if all(client.finished for client in clients.values()):
            break

    timeline = [f"{t:8.3f}s  {label}" for t, label in sorted(orchestrator.timeline)]
    report = _harvest(cfg, plan, scenario, clients, faults, timeline)
    report.loop_errors = loop_errors
    report.liveness.extend(f"tcp error: {err}" for err in backend.fabric.tcp_errors)
    for key in ("crashes", "restarts", "proxies", "spec_updates"):
        report.info[key] = getattr(orchestrator.stats, key)
    for channel, stats in orchestrator.proxy_stats().items():
        report.info[f"proxy[{channel}]"] = stats

    orchestrator.close()
    await backend.aclose()
    return report


def run_chaos(cfg: ChaosConfig, plan: Mapping[str, Any]) -> Dict[str, ChaosReport]:
    """Every cell of ``plan``, each under the identical faults and load."""
    check_plan(plan)
    if cfg.backend not in ("sim", "live"):
        raise ValueError(f"unknown backend {cfg.backend!r}")
    faults = schedule_from_dicts(plan["faults"])
    if cfg.backend == "sim":
        return {cell: _run_sim(cfg, plan, cell, faults) for cell in plan["cells"]}
    return {
        cell: asyncio.run(_run_live_async(cfg, plan, cell, faults))
        for cell in plan["cells"]
    }


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------
def _verdicts(
    plan: Mapping[str, Any],
    reports: Mapping[str, ChaosReport],
    min_goodput: Optional[float] = None,
) -> List[Tuple[bool, str]]:
    """``(passed, line)`` for each goodput verdict: every cell against
    ``min_goodput`` (on its fault window, or its pre window when the plan
    has no faults) and the plan's ``compare`` on the fault window.

    A verdict that reads an empty window fails as such: the guard bands
    (:data:`~repro.chaos.slo.GUARD` after the fault starts,
    :data:`~repro.chaos.slo.LADDER_GUARD` before it ends) leave no fault
    window under a fault span of 2 s or less.
    """
    window = "fault" if plan["faults"] else "pre"
    reads = [(cell, window) for cell in reports] if min_goodput is not None else []
    compare = plan.get("compare")
    if compare:
        reads.extend((cell, "fault") for cell in compare)
    empty = []
    for cell, name in dict.fromkeys(reads):
        if reports[cell].auditor.counts[name].sent == 0:
            lo, hi = getattr(reports[cell].auditor.windows, name)
            empty.append((False, f"{cell}: {name} window [{lo:.2f}, {hi:.2f}) holds no "
                                 "samples: nothing to judge (a fault window needs a fault "
                                 f"span over {GUARD + LADDER_GUARD:g} s)"))
    if empty:
        return empty
    out = []
    if min_goodput is not None:
        for cell, report in reports.items():
            goodput = report.auditor.counts[window].goodput
            ok = goodput >= min_goodput
            out.append((ok, f"{cell}: goodput check {'ok' if ok else 'FAILED'}: {window}-window "
                            f"goodput {goodput:.3f}, floor {min_goodput:.3f}"))
    if compare:
        challenger, reference = compare
        ours, theirs = (reports[cell].auditor.counts["fault"].goodput for cell in compare)
        ok = ours > theirs
        out.append((ok, f"{challenger} {'beats' if ok else 'did not beat'} {reference} on "
                        f"fault-window goodput: {ours:.3f} vs {theirs:.3f}"))
    return out


def failures(
    plan: Mapping[str, Any],
    reports: Mapping[str, ChaosReport],
    min_goodput: Optional[float] = None,
) -> List[str]:
    """Why ``repro chaos`` exits 1: each cell's liveness and (``--slo``)
    SLO failures, then every failed goodput verdict."""
    problems = [f"{cell}: {item}" for cell, report in reports.items() for item in report.failures()]
    problems.extend(line for ok, line in _verdicts(plan, reports, min_goodput) if not ok)
    return problems


# ----------------------------------------------------------------------
# rendering + CLI
# ----------------------------------------------------------------------
def render_report(
    cfg: ChaosConfig,
    plan_name: str,
    plan: Mapping[str, Any],
    reports: Mapping[str, ChaosReport],
    min_goodput: Optional[float] = None,
) -> str:
    from repro.analysis.provenance import provenance_header

    rates = plan["rates"]
    lines = [
        provenance_header(
            "chaos_unified", seed=cfg.seed, config=cfg,
            extra={"backend": cfg.backend, "plan": plan_name},
        ),
        f"=== chaos: fault schedule replay on the {cfg.backend} backend ===",
        "",
        f"plan {plan_name}: {plan['duration']:g} s; pool/fresh/attack "
        f"{rates['pool']:g}/{rates['fresh']:g}/{rates['attack']:g} QPS; "
        f"capacity {plan['channel_capacity']:g} QPS x {plan['targets']} target(s)",
        "schedule:",
    ]
    lines.extend(f"  {json.dumps(entry, sort_keys=True)}"
                 for entry in schedule_to_dicts(schedule_from_dicts(plan["faults"])))
    for cell, report in reports.items():
        auditor = report.auditor
        slo = auditor.metrics()["slo"]
        lines.extend(["", f"--- cell {cell} ---"])
        if report.timeline:
            lines.append("execution timeline (wall/virtual offsets, informational):")
            lines.extend(f"  {item}" for item in report.timeline)
        lines.append("")
        for name, (lo, hi) in auditor.windows.items():
            counts = auditor.counts[name]
            lines.append(
                f"{name:>8s} [{lo:5.2f}, {hi:5.2f}): sent={counts.sent:<4d} "
                f"noerror={counts.noerror:<4d} servfail={counts.servfail:<4d} "
                f"timeout={counts.timeout:<3d} goodput={counts.goodput:.3f}"
            )
        lines.append(f"  guard-band/tail samples excluded: {auditor.guard_excluded}")
        retained = slo["goodput_retained"]
        mttr = slo["mttr"]
        t90 = slo["time_to_90pct"]
        lines.append("")
        lines.append(
            "recovery SLOs: "
            f"goodput retained={retained if retained is not None else 'n/a'} "
            f"mttr={f'{mttr}s' if mttr is not None else 'n/a'} "
            f"time-to-90%={f'{t90}s' if t90 is not None else 'n/a'}"
        )
        lines.append("")
        lines.append("run details (informational, timing-sensitive):")
        lines.extend(f"  {key} = {report.info[key]}" for key in sorted(report.info))
    lines.extend(["", f"resilience-layer counters (resolver {RESOLVER_ADDR}):"])
    lines.append(render_resilience_table({cell: r.resolver for cell, r in reports.items()}))
    judged = _verdicts(plan, reports, min_goodput)
    if judged:
        lines.append("")
        lines.extend(line for _, line in judged)
    problems = failures(plan, reports, min_goodput)
    lines.append("")
    if problems:
        lines.append("FAILURES:")
        lines.extend(f"  - {item}" for item in problems)
    else:
        verdict = "pass" if cfg.enforce_slo else "not gated (--slo to enforce)"
        lines.append(f"liveness: ok; SLO: {verdict}")
    return "\n".join(lines)


def _write(path: str, text: str) -> None:
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="replay a fault plan on either transport backend, one run "
        "per resolver configuration, and audit recovery SLOs (see docs/CHAOS.md)",
    )
    parser.add_argument("--backend", choices=("sim", "live"), default="sim")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--plan", default="default", metavar="NAME|FILE",
                        help=f"a built-in plan ({', '.join(PLANS)}) or a JSON "
                        "plan file: examples/chaos_schedule.json is the default "
                        "plan, chaos_none.json the fault-free smoke, "
                        "chaos_loss30.json 30%% loss")
    parser.add_argument("--out", default=None,
                        help="also write the human report to this file")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the canonical metrics JSON here "
                        "(default results/chaos_<backend>.json)")
    parser.add_argument("--obs-out", default=None, metavar="FILE",
                        help="export each cell's observability registry as "
                        "JSONL (every line carries its cell)")
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="fail unless FILE is byte-identical to this "
                        "run's canonical metrics JSON")
    parser.add_argument("--slo", action="store_true",
                        help="gate the exit status on every cell's recovery SLOs")
    parser.add_argument("--min-recovery", type=float, default=0.8,
                        help="required recovery/pre goodput fraction")
    parser.add_argument("--max-mttr", type=float, default=None,
                        help="optional MTTR ceiling in seconds")
    parser.add_argument("--min-goodput", type=float, default=None,
                        help="fail unless every cell's fault-window goodput "
                        "(the pre window's, under an empty schedule) >= this fraction")
    args = parser.parse_args(argv)

    plan = load_plan(args.plan)
    cfg = ChaosConfig(
        backend=args.backend,
        seed=args.seed,
        slo=SloConfig(
            min_recovery_fraction=args.min_recovery, max_mttr=args.max_mttr
        ),
        enforce_slo=args.slo,
    )
    reports = run_chaos(cfg, plan)
    rendered = render_report(cfg, args.plan, plan, reports, args.min_goodput)
    print(rendered)

    if args.obs_out:
        lines = []
        for cell, report in reports.items():
            obs = Observability()
            report.auditor.emit(obs)
            for key in ("crashes", "restarts", "recoveries", "proxies", "spec_updates"):
                if key in report.info:
                    obs.inc(f"chaos.exec.{key}", report.info[key])
            lines.extend(json.dumps(dict(json.loads(line), cell=cell), sort_keys=True) + "\n"
                         for line in metrics_jsonl(obs.metrics).splitlines())
        _write(args.obs_out, "".join(lines))

    canonical = canonical_metrics(reports)
    metrics_path = args.metrics_out or os.path.join("results", f"chaos_{cfg.backend}.json")
    _write(metrics_path, canonical)
    print(f"\n[metrics written to {metrics_path}]")

    status = 1 if failures(plan, reports, args.min_goodput) else 0
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as fh:
            same = fh.read() == canonical
        print(f"determinism check {'ok' if same else 'FAILED'} against {args.check_against}"
              + ("" if same else ": metrics JSON differs"))
        status |= not same
    if args.out:
        _write(args.out, rendered + "\n")
        print(f"[report written to {args.out}]")
    return status
