"""Chaos-resilience tests: the fault matrix's ``crash-ramp`` plan.

Covers the three acceptance properties: determinism of a full chaos run,
DCC-on benign service dominating DCC-off under the identical fault
schedule, and a DCC-protected resolver losing its monitor/conviction
state on crash and demonstrably re-convicting the attacker afterwards.
"""

import pytest

from repro.dcc.monitor import AnomalyKind, ClientVerdict, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.experiments import chaos_unified as cu
from repro.experiments.chaos_unified import ChaosConfig, run_chaos
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.netsim.faults import NodeOutage
from repro.workloads.schedule import ClientSpec
from tests.test_resilience_matrix import SCALE, whole_run_goodput

PLAN = cu.matrix_plans(SCALE)["crash-ramp"]


@pytest.fixture(scope="module")
def runs():
    return run_chaos(ChaosConfig(seed=42), PLAN)


class TestChaosExperiment:
    """Primary-ANS crash + loss ramp onto the replica: the fault schedule
    executes, goodput dips, and DCC-on benign service dominates DCC-off
    under the identical timeline."""

    def test_run_is_deterministic(self, runs):
        again = run_chaos(ChaosConfig(seed=42), dict(PLAN, cells=["vanilla"], compare=None))
        assert cu.canonical_metrics(again) == cu.canonical_metrics({"vanilla": runs["vanilla"]})
        assert again["vanilla"].info == runs["vanilla"].info
        assert again["vanilla"].timeline == runs["vanilla"].timeline

    def test_fault_schedule_executes(self, runs):
        vanilla = runs["vanilla"]
        assert vanilla.info["crashes"] == 1
        assert vanilla.info["recoveries"] == 1
        assert vanilla.info["degraded_messages"] > 0
        timeline = "\n".join(vanilla.timeline)
        assert "crash" in timeline and "recover" in timeline

    def test_goodput_dips_during_fault(self, runs):
        counts = runs["vanilla"].auditor.counts
        assert counts["fault"].sent > 0
        assert counts["fault"].goodput < counts["pre"].goodput

    def test_dcc_dominates_vanilla_under_identical_faults(self, runs):
        dcc, vanilla = runs["dcc"], runs["vanilla"]
        # Both cells saw the exact same fault schedule...
        assert dcc.timeline == vanilla.timeline
        # ...and DCC kept benign clients better served throughout.
        assert dcc.auditor.counts["fault"].goodput >= vanilla.auditor.counts["fault"].goodput
        assert whole_run_goodput(dcc) >= whole_run_goodput(vanilla)
        assert cu.failures(PLAN, runs) == []

    def test_dcc_polices_the_attacker(self, runs):
        # the monitor and policies follow the plan's compressed timeline,
        # so the NX attacker is convicted and policed inside the run
        assert runs["dcc"].info["dcc_policed"] > 0
        assert "dcc_policed" not in runs["vanilla"].info

    def test_report_renders(self, runs):
        report = cu.render_report(ChaosConfig(seed=42), "crash-ramp", PLAN, runs)
        assert "plan crash-ramp" in report
        assert "recovery" in report
        assert "fault [" in report
        assert "degradation start" in report
        assert "dcc beats vanilla on fault-window goodput" in report


class TestReconvictionAfterCrash:
    def test_resolver_crash_loses_convictions_and_redetects(self):
        # Fast monitor so conviction happens well before the crash.
        config = ScenarioConfig(
            seed=11,
            duration=12.0,
            channel_capacity=500.0,
            use_dcc=True,
            monitor=MonitorConfig(
                window=0.25,
                alarm_threshold=3,
                suspicion_period=60.0,
                nxdomain_ratio_threshold=0.2,
            ),
            # Long policy: without the crash it would outlive the run, so
            # any post-crash re-conviction is the fresh monitor's doing.
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(
                    PolicyKind.RATE_LIMIT, duration=30.0, rate=50.0
                )
            },
        )
        scenario = AttackScenario(config)
        scenario.add_clients(
            [
                ClientSpec("benign", 0.0, 12.0, 100.0, "WC"),
                ClientSpec("attacker", 1.0, 12.0, 400.0, "NX", is_attacker=True),
            ]
        )
        shim = scenario.shims[0]
        resolver = scenario.resolvers[0]
        attacker_addr = scenario._client_addr["attacker"]

        # Crash the DCC-protected resolver mid-attack for one second.
        scenario.injector.add_node_outage(
            NodeOutage(address=resolver.address, at=6.0, duration=1.0)
        )

        snapshots = {}

        def snapshot(tag):
            snapshots[tag] = {
                "monitor": shim.monitor,
                "verdict": shim.monitor.verdict(attacker_addr),
            }

        scenario.sim.schedule_at(5.9, snapshot, "pre_crash")
        for client in scenario.clients.values():
            client.start()
        scenario.sim.run(until=12.0)
        snapshot("end")

        # Convicted before the crash...
        assert snapshots["pre_crash"]["verdict"] == ClientVerdict.CONVICTED
        # ...the crash replaced the monitor wholesale (state loss)...
        assert shim.stats.host_crashes == 1
        assert snapshots["end"]["monitor"] is not snapshots["pre_crash"]["monitor"]
        # ...and the fresh monitor re-detected the ongoing abuse.
        assert snapshots["end"]["verdict"] == ClientVerdict.CONVICTED

    def test_operator_capacities_survive_crash(self):
        config = ScenarioConfig(
            seed=3, duration=4.0, channel_capacity=800.0, use_dcc=True
        )
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("benign", 0.0, 4.0, 50.0, "WC")])
        shim = scenario.shims[0]
        resolver = scenario.resolvers[0]
        target = scenario.target_ans_addrs[0]

        scenario.injector.add_node_outage(
            NodeOutage(address=resolver.address, at=1.0, duration=0.5)
        )
        for client in scenario.clients.values():
            client.start()
        scenario.sim.run(until=4.0)

        # Config-file state (operator-pinned channel capacity) was
        # re-applied on restart.
        assert shim.stats.host_crashes == 1
        bucket = shim.scheduler.channel_bucket(target)
        assert bucket.rate == pytest.approx(800.0)
