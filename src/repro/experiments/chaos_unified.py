"""``repro chaos``: one fault schedule, either backend, recovery SLOs.

The chaos tentpole's proof obligation: a *serialized* fault schedule
(:mod:`repro.netsim.faults` dicts) replays against the virtual backend
and the real-socket backend through the same orchestration API
(:mod:`repro.chaos.orchestrator`), and a recovery-SLO audit
(:mod:`repro.chaos.slo`) emits deterministic MTTR / goodput-retained /
time-to-90% metrics either way.

Topology: the Figure 3 cast every figure runs, built by
:class:`~repro.experiments.common.AttackScenario` on either backend::

    pool EngineClient  ──┐                          ┌─> root auth
    fresh EngineClient ──┼─> resolver (+DCC shim) ──┤      [partition]
    NX attacker        ──┘                          ├─> target auth (RRL)
                                                    │      [outage + delay ramp]
                                                    └─> FF attacker auth (idle)

Two benign workloads separate the hardening layers' contributions: the
**pool** client re-asks a small set of wildcard names (TTL 1 s -- during
an outage these hit RFC 8767 serve-stale and keep answering NOERROR),
while the **fresh** client asks unique names (no cache to fall back on:
during a total authoritative outage these SERVFAIL, and their recovery
is what MTTR measures).  The NX attacker supplies adversarial load so
DCC is exercised, but only its (count-based) ``sent`` total enters the
metrics document.

Determinism contract: the metrics JSON written by ``--metrics-out`` is
*byte-identical* across same-seed runs on the same backend -- samples
are classified by seeded nominal send time, boundary-ambiguous samples
fall in guard bands, and the document is serialized through
:func:`repro.obs.export.canonical_json`.  ``--check-against`` compares
a previous run's file against the current bytes; ``--slo`` gates on the
recovery floors (the acceptance criterion: the live run recovers to
>= 80% of pre-fault goodput after a total authoritative outage with DCC
and hardening enabled); ``--min-goodput`` puts a floor under the
fault-window goodput.

With an empty schedule (``examples/chaos_none.json``) the live backend
is the real-socket smoke: liveness, event-loop and TCP-path errors and
same-seed byte equality are still gated (docs/TRANSPORT.md).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import LiveChaosOrchestrator, RecoveryAuditor, SloConfig
from repro.dnscore.name import Name
from repro.experiments.common import (
    RESOLVER_ADDR,
    ROOT_ADDR,
    TARGET_ANS_ADDR,
    TARGET_ORIGIN,
    AttackScenario,
    ScenarioConfig,
)
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
from repro.server.resolver import ResolverConfig
from repro.transport.base import TransportBackend
from repro.transport.engine import EngineClient, EngineConfig
from repro.transport.udp import UdpBackend

POOL_ADDR = "10.0.9.1"
FRESH_ADDR = "10.0.9.2"
ATTACK_ADDR = "10.0.9.66"

#: names the pool client cycles through (each stays cached + goes stale)
POOL_SIZE = 8
#: open-loop send rates of the pool, fresh and attack clients (QPS)
POOL_RATE = 15.0
FRESH_RATE = 15.0
ATTACK_RATE = 40.0
#: DCC channel capacity towards the target authoritative (QPS)
CHANNEL_CAPACITY = 300.0
#: how long a client waits for one query's verdict (seconds)
CLIENT_DEADLINE = 4.0

#: extra real/virtual time after the send phase for verdict tails
_DRAIN_GRACE = 1.0
#: seeded inter-arrival jitter can push the last nominal send past
#: ``duration`` by a small random walk; the harvest horizon covers it
_NOMINAL_SLACK = 1.5


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


@dataclass
class ChaosConfig:
    backend: str = "sim"
    seed: int = 1
    duration: float = 10.0
    slo: SloConfig = field(default_factory=SloConfig)
    #: gate the exit status on the SLO floors (otherwise report-only)
    enforce_slo: bool = False


@dataclass
class ChaosReport:
    """One run: the audit plus everything around it."""

    config: ChaosConfig
    auditor: RecoveryAuditor
    #: seed-pure keys merged into the canonical metrics document
    extra: Dict[str, Any] = field(default_factory=dict)
    #: timing-sensitive observations (report-only, never in the gate)
    info: Dict[str, Any] = field(default_factory=dict)
    timeline: List[str] = field(default_factory=list)
    liveness: List[str] = field(default_factory=list)
    loop_errors: List[str] = field(default_factory=list)

    def canonical_metrics(self) -> str:
        return self.auditor.canonical(self.extra)

    def failures(self) -> List[str]:
        problems = list(self.liveness)
        problems.extend(f"event-loop error: {err}" for err in self.loop_errors)
        if self.config.enforce_slo:
            problems.extend(self.auditor.failures())
        return problems


def _pool_name(i: int) -> Name:
    return Name.from_text(f"p{i % POOL_SIZE}.wc.{TARGET_ORIGIN}")


def _fresh_name(i: int) -> Name:
    return Name.from_text(f"f{i:05d}.wc.{TARGET_ORIGIN}")


def _attack_name(i: int) -> Name:
    return Name.from_text(f"x{i:05d}.nx.{TARGET_ORIGIN}")


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


def _resolver_config() -> ResolverConfig:
    # the hardened resolver: adaptive RTO + circuit breaker + RFC 8767
    # serve-stale.  rto_max bounds the three-attempt retry ladder at
    # 0.3 + 0.5 + 0.5 = 1.3 s -- inside the SLO ladder_guard (1.5 s), so
    # a ladder started before the heal boundary's guard band cannot
    # resolve after it; backoff_cap keeps the breaker's last open
    # interval short enough to re-close inside the heal_guard (2.5 s)
    return ResolverConfig(
        qname_minimization=False,
        max_retries=2,
        serve_stale_window=45.0,
        health=HealthConfig(
            mode="adaptive", base_timeout=0.3, rto_min=0.1, rto_max=0.5,
            failure_threshold=3, backoff_base=0.3, backoff_cap=0.8,
        ),
    )


def _build(
    cfg: ChaosConfig, backend: Optional[TransportBackend] = None
) -> Tuple[AttackScenario, List[EngineClient]]:
    """The Figure 3 cast on ``backend`` (None: the simulator) plus the
    pool, fresh and attack clients, in that order."""
    # answer TTL 1 s: pool entries expire between revisits, so during the
    # outage the pool exercises serve-stale rather than plain cache hits
    scenario = AttackScenario(
        ScenarioConfig(
            seed=cfg.seed,
            duration=cfg.duration,
            channel_capacity=CHANNEL_CAPACITY,
            use_dcc=True,
            answer_ttl=1,
            resolver_config=_resolver_config(),
        ),
        backend,
    )
    engine_cfg = _client_engine_config()
    clients = []
    for address, name_of, rate in (
        (POOL_ADDR, _pool_name, POOL_RATE),
        (FRESH_ADDR, _fresh_name, FRESH_RATE),
        (ATTACK_ADDR, _attack_name, ATTACK_RATE),
    ):
        client = EngineClient(
            address, RESOLVER_ADDR, name_of,
            rate=rate, total=max(1, int(rate * cfg.duration)), config=engine_cfg,
        )
        scenario.net.attach(client)
        clients.append(client)
    return scenario, clients


def _harvest(
    cfg: ChaosConfig,
    scenario: AttackScenario,
    clients: List[EngineClient],
    faults: List[FaultSpec],
    timeline: List[str],
) -> ChaosReport:
    span = fault_span(faults)
    if span is None:
        # no faults: the whole run is "pre"; SLO gating will report the
        # missing recovery window rather than inventing one
        span = (cfg.duration, cfg.duration)
    pool, fresh, attack = clients
    auditor = RecoveryAuditor(span, cfg.duration, cfg.slo)
    auditor.add_samples(pool.samples)
    auditor.add_samples(fresh.samples)

    report = ChaosReport(config=cfg, auditor=auditor, timeline=timeline)
    for client in clients:
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
        "duration": cfg.duration,
        "workload": {
            "pool_sent": pool.sent,
            "fresh_sent": fresh.sent,
            "attack_sent": attack.sent,
        },
        "schedule": schedule_to_dicts(faults),
    }
    resolver_stats = scenario.resolvers[0].stats
    report.info = {
        "pool_verdicts": dict(sorted(pool.verdicts.items())),
        "fresh_verdicts": dict(sorted(fresh.verdicts.items())),
        "resolver_stale_served": resolver_stats.stale_responses
        + resolver_stats.stale_fastpath_responses,
        "resolver_breaker_opens": resolver_stats.breaker_opens,
        "resolver_breaker_closes": resolver_stats.breaker_closes,
        "dcc_intercepted": scenario.shims[0].stats.queries_intercepted,
        "auth_queries": scenario.target_ans[0].stats.queries_received,
    }
    return report


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
def _run_sim(cfg: ChaosConfig, faults: List[FaultSpec]) -> ChaosReport:
    scenario, clients = _build(cfg)
    injector = scenario.injector
    for spec in faults:
        injector.add(spec)
    for client in clients:
        client.start()
    horizon = cfg.duration + _NOMINAL_SLACK + CLIENT_DEADLINE + _DRAIN_GRACE
    scenario.sim.run(until=horizon)
    timeline = [f"{t:8.3f}s  {label}" for t, label in sorted(injector.timeline)]
    report = _harvest(cfg, scenario, clients, faults, timeline)
    report.info["crashes"] = injector.stats.crashes
    report.info["recoveries"] = injector.stats.recoveries
    report.info["partition_cuts"] = injector.stats.partition_cuts
    return report


async def _run_live_async(cfg: ChaosConfig, faults: List[FaultSpec]) -> ChaosReport:
    backend = UdpBackend(seed=cfg.seed)
    scenario, clients = _build(cfg, backend)
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

    for client in clients:
        client.start()
    clock = backend.clock
    hard_stop = cfg.duration + _NOMINAL_SLACK + CLIENT_DEADLINE + _DRAIN_GRACE
    while clock.now < hard_stop:
        await asyncio.sleep(0.05)
        if all(client.finished for client in clients):
            break

    timeline = [f"{t:8.3f}s  {label}" for t, label in sorted(orchestrator.timeline)]
    report = _harvest(cfg, scenario, clients, faults, timeline)
    report.loop_errors = loop_errors
    report.liveness.extend(f"tcp error: {err}" for err in backend.fabric.tcp_errors)
    report.info["crashes"] = orchestrator.stats.crashes
    report.info["restarts"] = orchestrator.stats.restarts
    report.info["proxies"] = orchestrator.stats.proxies
    report.info["spec_updates"] = orchestrator.stats.spec_updates
    for channel, stats in orchestrator.proxy_stats().items():
        report.info[f"proxy[{channel}]"] = stats

    orchestrator.close()
    await backend.aclose()
    return report


def run_chaos(cfg: ChaosConfig, faults: List[FaultSpec]) -> ChaosReport:
    if cfg.backend == "sim":
        return _run_sim(cfg, faults)
    if cfg.backend == "live":
        return asyncio.run(_run_live_async(cfg, faults))
    raise ValueError(f"unknown backend {cfg.backend!r}")


# ----------------------------------------------------------------------
# rendering + CLI
# ----------------------------------------------------------------------
def render_report(report: ChaosReport) -> str:
    from repro.analysis.provenance import provenance_header

    cfg = report.config
    auditor = report.auditor
    metrics = auditor.metrics()
    slo = metrics["slo"]
    lines = [
        provenance_header(
            "chaos_unified", seed=cfg.seed, config=cfg,
            extra={"backend": cfg.backend},
        ),
        f"=== chaos: fault schedule replay on the {cfg.backend} backend ===",
        "",
        "schedule:",
    ]
    lines.extend(f"  {json.dumps(entry, sort_keys=True)}"
                 for entry in report.extra.get("schedule", []))
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
    problems = report.failures()
    lines.append("")
    if problems:
        lines.append("FAILURES:")
        lines.extend(f"  - {item}" for item in problems)
    else:
        verdict = "pass" if cfg.enforce_slo else "not gated (--slo to enforce)"
        lines.append(f"liveness: ok; SLO: {verdict}")
    return "\n".join(lines)


def _load_schedule(path: Optional[str]) -> List[FaultSpec]:
    if path is None:
        return default_schedule()
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dicts(json.load(fh))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="replay a fault schedule on either transport backend "
        "and audit recovery SLOs (see docs/CHAOS.md)",
    )
    parser.add_argument("--backend", choices=("sim", "live"), default="sim")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="send-phase length in seconds")
    parser.add_argument("--schedule", default=None, metavar="FILE",
                        help="JSON fault schedule (default: the built-in "
                        "outage+partition+degradation plan, "
                        "examples/chaos_schedule.json; chaos_none.json is "
                        "the fault-free smoke, chaos_loss30.json 30%% loss)")
    parser.add_argument("--out", default=None,
                        help="also write the human report to this file")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the canonical metrics JSON here "
                        "(default results/chaos_<backend>.json)")
    parser.add_argument("--obs-out", default=None, metavar="FILE",
                        help="export the observability registry as JSONL")
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="fail unless FILE is byte-identical to this "
                        "run's canonical metrics JSON")
    parser.add_argument("--slo", action="store_true",
                        help="gate the exit status on the recovery SLOs")
    parser.add_argument("--min-recovery", type=float, default=0.8,
                        help="required recovery/pre goodput fraction")
    parser.add_argument("--max-mttr", type=float, default=None,
                        help="optional MTTR ceiling in seconds")
    parser.add_argument("--min-goodput", type=float, default=None,
                        help="fail unless fault-window goodput (the pre "
                        "window's, under an empty schedule) >= this fraction")
    args = parser.parse_args(argv)

    faults = _load_schedule(args.schedule)
    cfg = ChaosConfig(
        backend=args.backend,
        seed=args.seed,
        duration=args.duration,
        slo=SloConfig(
            min_recovery_fraction=args.min_recovery, max_mttr=args.max_mttr
        ),
        enforce_slo=args.slo,
    )
    report = run_chaos(cfg, faults)
    rendered = render_report(report)
    print(rendered)

    obs = Observability()
    report.auditor.emit(obs)
    for key in ("crashes", "restarts", "recoveries", "proxies", "spec_updates"):
        if key in report.info:
            obs.inc(f"chaos.exec.{key}", report.info[key])
    if args.obs_out:
        obs_dir = os.path.dirname(args.obs_out)
        if obs_dir:
            os.makedirs(obs_dir, exist_ok=True)
        with open(args.obs_out, "w", encoding="utf-8") as fh:
            fh.write(metrics_jsonl(obs.metrics))

    canonical = report.canonical_metrics()
    metrics_path = args.metrics_out or os.path.join(
        "results", f"chaos_{cfg.backend}.json"
    )
    metrics_dir = os.path.dirname(metrics_path)
    if metrics_dir:
        os.makedirs(metrics_dir, exist_ok=True)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(canonical)
    print(f"\n[metrics written to {metrics_path}]")

    status = 1 if report.failures() else 0
    if args.min_goodput is not None:
        window = "fault" if faults else "pre"
        goodput = report.auditor.counts[window].goodput
        ok = goodput >= args.min_goodput
        print(f"goodput check {'ok' if ok else 'FAILED'}: {window}-window "
              f"goodput {goodput:.3f}, floor {args.min_goodput:.3f}")
        if not ok:
            status = 1
    if args.check_against:
        with open(args.check_against, "r", encoding="utf-8") as fh:
            expected = fh.read()
        if expected != canonical:
            print(f"determinism check FAILED against {args.check_against}: "
                  "metrics JSON differs")
            status = 1
        else:
            print(f"determinism check ok against {args.check_against}")
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"[report written to {args.out}]")
    return status
