"""The unified ``repro chaos`` driver.

Mostly on the virtual backend, which pins the backend-neutral parts:
schedule loading, window accounting, canonical metrics determinism, SLO
and goodput gating, and the CLI dispatch.  ``TestLiveSmoke`` runs the
fault-free cast over real 127.0.0.1 sockets for two seconds and checks
that the simulator writes the same metrics document; the faulted live
schedules (real seconds of outage) stay in CI's ``chaos-live`` and
``live-smoke`` jobs.
"""

import json

import pytest

from repro.experiments import chaos_unified
from repro.experiments.chaos_unified import (
    ChaosConfig,
    default_schedule,
    render_report,
    run_chaos,
)
from repro.experiments.common import RESOLVER_ADDR, TARGET_ANS_ADDR
from repro.netsim.faults import schedule_to_dicts
from repro.transport.udp import UdpBackend

QUICK = dict(POOL_RATE=6.0, FRESH_RATE=6.0, ATTACK_RATE=10.0)


@pytest.fixture
def quick(monkeypatch):
    """Lower client rates: a short run that still crosses every window."""
    for name, rate in QUICK.items():
        monkeypatch.setattr(chaos_unified, name, rate)


def quick_config(**overrides):
    return ChaosConfig(backend="sim", seed=7, **overrides)


def without_backend(report):
    """A run's canonical metrics document minus its backend tag."""
    doc = json.loads(report.canonical_metrics())
    assert doc.pop("backend") == report.config.backend
    return doc


@pytest.mark.usefixtures("quick")
class TestSimChaosRun:
    def test_default_schedule_meets_the_slo_gate(self):
        report = run_chaos(quick_config(enforce_slo=True), default_schedule())
        assert report.failures() == []
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
        assert report.info["resolver_stale_served"] > 0
        assert report.info["crashes"] == 1 and report.info["recoveries"] == 1

    def test_same_seed_metrics_are_byte_identical(self):
        first = run_chaos(quick_config(), default_schedule())
        second = run_chaos(quick_config(), default_schedule())
        assert first.canonical_metrics() == second.canonical_metrics()

    def test_different_seeds_differ(self):
        a = run_chaos(quick_config(), default_schedule())
        b = run_chaos(ChaosConfig(backend="sim", seed=8), default_schedule())
        assert a.canonical_metrics() != b.canonical_metrics()

    def test_schedule_embedded_in_metrics_document(self):
        report = run_chaos(quick_config(), default_schedule())
        doc = json.loads(report.canonical_metrics())
        assert doc["schedule"] == schedule_to_dicts(default_schedule())
        assert doc["backend"] == "sim" and doc["seed"] == 7

    def test_empty_schedule_fails_the_gate_not_the_run(self):
        report = run_chaos(quick_config(duration=4.0, enforce_slo=True), [])
        assert report.liveness == []
        assert any("recovery" in f for f in report.failures())

    def test_render_report_shows_windows_and_slos(self):
        report = run_chaos(quick_config(enforce_slo=True), default_schedule())
        rendered = render_report(report)
        assert "recovery SLOs" in rendered
        assert "goodput retained" in rendered
        assert "SLO: pass" in rendered
        assert '"kind": "outage"' in rendered

    def test_unknown_backend_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            run_chaos(ChaosConfig(backend="quantum"), default_schedule())


class TestLiveSmoke:
    def test_fault_free_run_over_real_sockets_is_live_and_deterministic(self):
        reports = [
            run_chaos(ChaosConfig(backend="live", seed=1, duration=2.0), [])
            for _ in range(2)
        ]
        for report in reports:
            # no silent hang, no event-loop callback error, no TCP error
            assert report.liveness == []
            assert report.loop_errors == []
            assert report.failures() == []
            sent = report.extra["workload"]
            assert sum(report.info["pool_verdicts"].values()) == sent["pool_sent"]
            assert sum(report.info["fresh_verdicts"].values()) == sent["fresh_sent"]
            assert sent["pool_sent"] > 0 and sent["attack_sent"] > 0
        assert reports[0].canonical_metrics() == reports[1].canonical_metrics()
        # one cast, two backends: the simulator writes the same document
        sim = run_chaos(ChaosConfig(backend="sim", seed=1, duration=2.0), [])
        assert without_backend(sim) == without_backend(reports[0])


class TestOneCast:
    def test_attack_scenario_builds_the_cast_on_real_sockets(self):
        backend = UdpBackend(seed=1)
        scenario, clients = chaos_unified._build(ChaosConfig(backend="live"), backend)
        assert scenario.sim is backend.clock and scenario.net is backend.fabric
        nodes = [scenario.root, *scenario.target_ans, scenario.attacker_ans,
                 *scenario.resolvers, *clients]
        for node in nodes:
            assert backend.fabric.node(node.address) is node
            assert node.sim is backend.clock
        # the live orchestrator, not an in-fabric injector, plays faults
        assert scenario.injector is None
        assert scenario.target_ans_addrs == [TARGET_ANS_ADDR]
        assert [r.address for r in scenario.resolvers] == [RESOLVER_ADDR]
        assert len(scenario.shims) == 1

    @pytest.mark.usefixtures("quick")
    def test_the_simulator_cast_carries_the_injector(self):
        scenario, _ = chaos_unified._build(quick_config())
        assert scenario.injector is not None
        assert scenario.injector.net is scenario.net


class TestScheduleLoading:
    def test_example_schedule_is_the_default_plan(self):
        loaded = chaos_unified._load_schedule("examples/chaos_schedule.json")
        assert loaded == default_schedule()

    def test_none_falls_back_to_default(self):
        assert chaos_unified._load_schedule(None) == default_schedule()

    def test_smoke_schedules_load(self):
        assert chaos_unified._load_schedule("examples/chaos_none.json") == []
        (loss,) = chaos_unified._load_schedule("examples/chaos_loss30.json")
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
                "--schedule", "examples/chaos_loss30.json",
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
        status = chaos_unified.main([
            "--backend", "sim", "--seed", "1", "--duration", "3",
            "--schedule", "examples/chaos_none.json",
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
