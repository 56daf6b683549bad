"""The unified ``repro chaos`` driver.

Mostly on the virtual backend, which pins the backend-neutral parts:
plan loading, window accounting, canonical metrics determinism, SLO
and goodput gating, and the CLI dispatch.  ``TestLiveSmoke`` runs the
fault-free cast over real 127.0.0.1 sockets for two seconds and checks
that the simulator writes the same metrics document; the faulted live
plans (real seconds of outage) stay in CI's ``chaos-live`` and
``live-smoke`` jobs.
"""

import json

import pytest

from repro.experiments import chaos_unified
from repro.experiments.chaos_unified import (
    PLANS,
    ChaosConfig,
    canonical_metrics,
    default_schedule,
    failures,
    load_plan,
    render_report,
    run_chaos,
)
from repro.experiments.common import RESOLVER_ADDR, TARGET_ANS_ADDR
from repro.netsim.faults import NodeOutage, schedule_from_dicts, schedule_to_dicts
from repro.transport.udp import UdpBackend

#: the default plan at lower client rates: a short run that still
#: crosses every window
QUICK = dict(PLANS["default"], rates={"pool": 6.0, "fresh": 6.0, "attack": 10.0})
CELL = "hardened+dcc"


def quick_config(**overrides):
    return ChaosConfig(backend="sim", seed=7, **overrides)


def without_backend(reports):
    """A run's canonical metrics document minus each cell's backend tag."""
    doc = json.loads(canonical_metrics(reports))
    for cell, report in reports.items():
        assert doc[cell].pop("backend") == report.config.backend
    return doc


class TestSimChaosRun:
    def test_default_schedule_meets_the_slo_gate(self):
        reports = run_chaos(quick_config(enforce_slo=True), QUICK)
        assert failures(QUICK, reports) == []
        report = reports[CELL]
        auditor = report.auditor
        assert auditor.counts["pre"].goodput == 1.0
        # the fault window splits: pool names serve stale (NOERROR),
        # fresh names SERVFAIL -- both answered, nothing hangs
        fault = auditor.counts["fault"]
        assert fault.sent > 0
        assert fault.noerror > 0 and fault.servfail > 0
        assert fault.timeout == 0
        retained = auditor.goodput_retained
        assert retained is not None and retained >= 0.8
        assert auditor.mttr() is not None
        assert report.resolver.stale_responses + report.resolver.stale_fastpath_responses > 0
        assert report.info["crashes"] == 1 and report.info["recoveries"] == 1

    def test_same_seed_metrics_are_byte_identical(self):
        first = run_chaos(quick_config(), QUICK)
        second = run_chaos(quick_config(), QUICK)
        assert canonical_metrics(first) == canonical_metrics(second)

    def test_different_seeds_differ(self):
        a = run_chaos(quick_config(), QUICK)
        b = run_chaos(ChaosConfig(backend="sim", seed=8), QUICK)
        assert canonical_metrics(a) != canonical_metrics(b)

    def test_schedule_embedded_in_metrics_document(self):
        doc = json.loads(canonical_metrics(run_chaos(quick_config(), QUICK)))
        assert list(doc) == [CELL]
        assert doc[CELL]["schedule"] == schedule_to_dicts(default_schedule())
        assert doc[CELL]["backend"] == "sim" and doc[CELL]["seed"] == 7

    def test_empty_schedule_fails_the_gate_not_the_run(self):
        plan = dict(QUICK, faults=[], duration=4.0)
        reports = run_chaos(quick_config(enforce_slo=True), plan)
        assert reports[CELL].liveness == []
        assert any("recovery" in f for f in failures(plan, reports))

    def test_empty_fault_window_is_named_not_judged(self):
        # a 1.5 s outage: the 0.5 s onset guard and the 1.5 s retry-ladder
        # guard leave its fault window without a single sample
        plan = dict(QUICK, faults=schedule_to_dicts(
            [NodeOutage(address=TARGET_ANS_ADDR, at=3.0, duration=1.5)]))
        reports = run_chaos(quick_config(), plan)
        assert reports[CELL].auditor.counts["fault"].sent == 0
        assert failures(plan, reports) == []  # no verdict reads the window
        (problem,) = failures(plan, reports, min_goodput=0.5)
        assert "fault window [3.50, 3.50) holds no samples" in problem
        assert "goodput check" not in problem

    def test_render_report_shows_windows_and_slos(self):
        reports = run_chaos(quick_config(enforce_slo=True), QUICK)
        rendered = render_report(quick_config(enforce_slo=True), "default", QUICK, reports)
        assert "recovery SLOs" in rendered
        assert "goodput retained" in rendered
        assert "SLO: pass" in rendered
        assert '"kind": "outage"' in rendered
        assert f"--- cell {CELL} ---" in rendered
        assert "resilience-layer counters" in rendered

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(ChaosConfig(backend="quantum"), QUICK)


class TestLiveSmoke:
    def test_fault_free_run_over_real_sockets_is_live_and_deterministic(self):
        plan = dict(load_plan("examples/chaos_none.json"), duration=2.0)
        runs = [run_chaos(ChaosConfig(backend="live", seed=1), plan) for _ in range(2)]
        for reports in runs:
            report = reports[CELL]
            # no silent hang, no event-loop callback error, no TCP error
            assert report.liveness == []
            assert report.loop_errors == []
            assert failures(plan, reports) == []
            sent = report.extra["workload"]
            assert sum(report.info["pool_verdicts"].values()) == sent["pool_sent"]
            assert sum(report.info["fresh_verdicts"].values()) == sent["fresh_sent"]
            assert sent["pool_sent"] > 0 and sent["attack_sent"] > 0
        assert canonical_metrics(runs[0]) == canonical_metrics(runs[1])
        # one cast, two backends: the simulator writes the same document
        sim = run_chaos(ChaosConfig(backend="sim", seed=1), plan)
        assert without_backend(sim) == without_backend(runs[0])


class TestOneCast:
    def test_attack_scenario_builds_the_cast_on_real_sockets(self):
        backend = UdpBackend(seed=1)
        scenario, clients = chaos_unified._build(
            ChaosConfig(backend="live"), PLANS["default"], CELL, backend
        )
        assert scenario.sim is backend.clock and scenario.net is backend.fabric
        nodes = [scenario.root, *scenario.target_ans, scenario.attacker_ans,
                 *scenario.resolvers, *clients.values()]
        for node in nodes:
            assert backend.fabric.node(node.address) is node
            assert node.sim is backend.clock
        # the live orchestrator, not an in-fabric injector, plays faults
        assert scenario.injector is None
        assert scenario.target_ans_addrs == [TARGET_ANS_ADDR]
        assert [r.address for r in scenario.resolvers] == [RESOLVER_ADDR]
        assert len(scenario.shims) == 1

    def test_the_simulator_cast_carries_the_injector(self):
        scenario, _ = chaos_unified._build(quick_config(), QUICK, CELL)
        assert scenario.injector is not None
        assert scenario.injector.net is scenario.net


class TestScheduleLoading:
    def test_example_schedule_is_the_default_plan(self):
        assert load_plan("examples/chaos_schedule.json") == PLANS["default"]

    def test_none_falls_back_to_default(self):
        """``--plan`` defaults to the built-in plan of that name."""
        assert load_plan("default") is PLANS["default"]
        assert schedule_from_dicts(PLANS["default"]["faults"]) == default_schedule()

    def test_smoke_schedules_load(self):
        none, loss30 = (load_plan(f"examples/chaos_{name}.json") for name in ("none", "loss30"))
        assert none == dict(PLANS["default"], faults=[])
        (loss,) = schedule_from_dicts(loss30["faults"])
        assert loss.matches(RESOLVER_ADDR, TARGET_ANS_ADDR)
        assert (loss.start, loss.end, loss.loss, loss.ramp) == (2.0, 8.0, 0.3, 0.0)
        assert loss.latency == 0.0 and loss.jitter == 0.0


class TestCli:
    def test_main_writes_and_checks_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "chaos_sim.json"
        status = chaos_unified.main([
            "--backend", "sim", "--seed", "3",
            "--metrics-out", str(metrics), "--slo",
        ])
        assert status == 0
        assert metrics.exists()
        rerun = tmp_path / "chaos_sim_2.json"
        status = chaos_unified.main([
            "--backend", "sim", "--seed", "3",
            "--metrics-out", str(rerun),
            "--check-against", str(metrics),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "determinism check ok" in out
        assert rerun.read_bytes() == metrics.read_bytes()

    def test_min_goodput_gates_the_fault_window(self, tmp_path, capsys):
        def status(floor):
            return chaos_unified.main([
                "--backend", "sim", "--seed", "1",
                "--plan", "examples/chaos_loss30.json",
                "--metrics-out", str(tmp_path / "loss.json"),
                "--min-goodput", floor,
            ])

        # 30% loss both ways on resolver<->target: the three-attempt
        # retry ladder keeps fault-window goodput at 0.942 on this seed
        assert status("0.7") == 0
        assert "goodput check ok: fault-window goodput 0.942" in capsys.readouterr().out
        assert status("0.95") == 1
        assert "goodput check FAILED" in capsys.readouterr().out

    def test_min_goodput_uses_the_pre_window_without_faults(self, tmp_path, capsys):
        plan = tmp_path / "none_3s.json"
        plan.write_text(json.dumps(dict(load_plan("examples/chaos_none.json"), duration=3.0)))
        status = chaos_unified.main([
            "--backend", "sim", "--seed", "1", "--plan", str(plan),
            "--metrics-out", str(tmp_path / "none.json"),
            "--min-goodput", "1.0",
        ])
        assert status == 0
        assert "pre-window goodput 1.000" in capsys.readouterr().out

    def test_repro_cli_dispatches_chaos_token(self, tmp_path, capsys):
        from repro import cli

        metrics = tmp_path / "via_cli.json"
        status = cli.main([
            "chaos", "--backend", "sim", "--seed", "3",
            "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert metrics.exists()
        assert "chaos: fault schedule replay" in out
