"""Acceptance tests for the resilience-matrix experiment: hardened vs
vanilla on the ``total-outage`` plan, plan/cell plumbing, the digest.
(DCC vs vanilla on ``crash-ramp`` is ``tests/test_chaos_experiment.py``.)"""

import pytest

from repro.analysis.report import render_resilience_table, resilience_counters
from repro.experiments import resilience_matrix as rm
from repro.server.forwarder import ForwarderStats
from repro.server.resolver import ResolverStats


class TestHardenedBeatsVanilla:
    """The ISSUE's acceptance gate: under a total authoritative outage
    plus an NX flood, the hardened resolver retains strictly more benign
    goodput than the vanilla one (asserted with a tolerance margin)."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            cell: rm.run_cell(cell, rm.TOTAL_OUTAGE, scale=0.1, seed=42)
            for cell in ("vanilla", "hardened")
        }

    def test_fault_window_goodput(self, cells):
        vanilla, hardened = cells["vanilla"], cells["hardened"]
        assert hardened.fault_goodput > vanilla.fault_goodput * 1.25
        assert hardened.fault_availability > vanilla.fault_availability

    def test_overall_availability(self, cells):
        assert cells["hardened"].availability > cells["vanilla"].availability

    def test_resilience_mechanisms_actually_fired(self, cells):
        counters = cells["hardened"].resilience_counters
        assert counters["stale_fastpath_responses"] > 0
        assert counters["breaker_opens"] > 0
        assert counters["shed_requests"] > 0
        assert counters["deadline_exhausted"] > 0
        # ...and none of them fired in the vanilla cell (stale/shed/
        # deadline machinery does not exist there).
        vanilla = cells["vanilla"].resilience_counters
        assert vanilla["stale_fastpath_responses"] == 0
        assert vanilla["shed_requests"] == 0
        assert vanilla["deadline_exhausted"] == 0

    def test_vanilla_cell_matches_seed_resolver(self, cells):
        """The vanilla cell must really be the seed resolver: legacy
        hold-downs engaged, no adaptive machinery configured."""
        stats = cells["vanilla"].result.resolver_stats[0]
        assert stats.server_backoffs > 0
        assert stats.breaker_half_opens == 0  # legacy has no probe stage


class TestDeterminism:
    def test_double_run_digest_identical(self):
        first = rm.cell_digest("hardened", scale=0.05, seed=7)
        second = rm.cell_digest("hardened", scale=0.05, seed=7)
        assert first == second

    def test_seed_changes_digest(self):
        a = rm.cell_digest("hardened", scale=0.05, seed=7)
        b = rm.cell_digest("hardened", scale=0.05, seed=8)
        assert a != b


class TestReportHelpers:
    def test_counters_extracted_from_resolver_stats(self):
        stats = ResolverStats()
        stats.shed_requests = 3
        stats.breaker_opens = 2
        counters = resilience_counters(stats)
        assert counters["shed_requests"] == 3
        assert counters["breaker_opens"] == 2
        assert "stale_fastpath_responses" in counters

    def test_table_unions_mixed_stats_blocks(self):
        resolver, forwarder = ResolverStats(), ForwarderStats()
        resolver.shed_requests = 5
        forwarder.servfail_responses = 1  # not a resilience counter
        table = render_resilience_table(
            {"resolver": resolver, "forwarder": forwarder}
        )
        assert "shed_requests" in table
        assert "servfail_responses" not in table
        # ForwarderStats carries no resilience counter: a row of dashes.
        assert set(table.splitlines()[-1].split()[1:]) == {"-"}

    def test_recovery_time_without_a_baseline_is_never(self):
        # nothing to regain: "never", not an instant recovery
        assert rm.recovery_time([0.0, 0.0, 0.0], bucket=1.0, fault_end=1.0, baseline=0.0) is None


class TestPlumbing:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            rm.cell_scenario_config("bogus", scale=0.1, seed=1)

    def test_every_plan_cell_is_defined(self):
        for plan in rm.PLANS:
            assert set(plan.cells) <= set(rm.CELLS)
            assert set(plan.compare) <= set(plan.cells)

    def test_clients_scale_with_timeline(self):
        scenario = rm.build_cell("vanilla", rm.CRASH_RAMP, scale=0.5, seed=1)
        # the plans name these nodes by literal address
        assert scenario.target_ans_addrs == [rm.PRIMARY_ANS, rm.REPLICA_ANS]
        assert [r.address for r in scenario.resolvers] == [rm.RESOLVER]
        attacker = scenario.clients["attacker"]
        assert attacker.config.start == pytest.approx(5.0)
        assert attacker.config.rate == 1100.0  # rates stay at paper values
        outage, ramp = (rm._compressed(f, 0.5) for f in rm.CRASH_RAMP.schedule)
        assert (outage.at, outage.duration) == (12.5, 7.5)
        assert (ramp.start, ramp.end, ramp.ramp) == (12.5, 22.5, 2.5)
        assert ramp.loss == 0.35  # a probability, not a time
        assert ramp.latency == 0.020  # RTT-tied, stays at the paper value

    def test_report_renders(self):
        plan = rm.TOTAL_OUTAGE
        runs = rm.run_plan(plan, scale=0.05, seed=3)
        report = rm.render_report(plan, runs)
        assert "Resilience matrix" in report
        for cell in plan.cells:
            assert cell in report
