"""Chaos-resilience tests: the resilience matrix's ``crash-ramp`` plan.

Covers the three acceptance properties: determinism of a full chaos run,
DCC-on benign service dominating DCC-off under the identical fault
schedule, and a DCC-protected resolver losing its monitor/conviction
state on crash and demonstrably re-convicting the attacker afterwards.
"""

import pytest

from repro.dcc.monitor import AnomalyKind, ClientVerdict, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.experiments import resilience_matrix as rm
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.netsim.faults import NodeOutage
from repro.workloads.schedule import ClientSpec


class TestChaosExperiment:
    """Primary-ANS crash + loss ramp onto the replica: the fault schedule
    executes, goodput dips, and DCC-on benign service dominates DCC-off
    under the identical timeline."""

    SCALE = 0.1

    def test_run_is_deterministic(self):
        a = rm.run_cell("dcc", rm.CRASH_RAMP, scale=self.SCALE, seed=7)
        b = rm.run_cell("dcc", rm.CRASH_RAMP, scale=self.SCALE, seed=7)
        assert a.metrics() == b.metrics()
        assert a.goodput_series == b.goodput_series
        assert a.timeline == b.timeline

    @pytest.fixture(scope="class")
    def vanilla(self):
        return rm.run_cell("vanilla", rm.CRASH_RAMP, scale=self.SCALE, seed=42)

    def test_fault_schedule_executes(self, vanilla):
        assert vanilla.fault_stats.crashes == 1
        assert vanilla.fault_stats.recoveries == 1
        assert vanilla.fault_stats.degraded_messages > 0
        assert "crash" in vanilla.timeline and "recover" in vanilla.timeline

    def test_goodput_dips_during_fault(self, vanilla):
        assert vanilla.fault_goodput < vanilla.baseline_goodput

    def test_dcc_dominates_vanilla_under_identical_faults(self):
        runs = rm.run_plan(rm.CRASH_RAMP, scale=0.15, seed=42)
        dcc, vanilla = runs["dcc"], runs["vanilla"]
        # Both cells saw the exact same fault schedule...
        assert dcc.timeline == vanilla.timeline
        # ...and DCC kept benign clients better served throughout.
        assert dcc.fault_goodput >= vanilla.fault_goodput
        assert dcc.availability >= vanilla.availability

    def test_report_renders(self, vanilla):
        runs = {
            "vanilla": vanilla,
            "dcc": rm.run_cell("dcc", rm.CRASH_RAMP, scale=self.SCALE, seed=42),
        }
        report = rm.render_report(rm.CRASH_RAMP, runs)
        assert "crash-ramp" in report
        assert "recovery" in report
        assert "avail(fault)" in report
        assert "degradation start" in report


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
