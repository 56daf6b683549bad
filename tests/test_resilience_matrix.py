"""Acceptance tests for the fault matrix's ``total-outage`` plan --
hardened vs vanilla, each cell one ``repro chaos`` run -- plus plan/cell
plumbing and determinism.  (DCC vs vanilla on ``crash-ramp`` is
``tests/test_chaos_experiment.py``.)"""

import pytest

from repro.analysis.report import render_resilience_table, resilience_counters
from repro.experiments import chaos_unified as cu
from repro.experiments.chaos_unified import ChaosConfig, run_chaos
from repro.experiments.common import RESOLVER_ADDR, target_ans_addr
from repro.netsim.faults import schedule_from_dicts
from repro.server.forwarder import ForwarderStats
from repro.server.resolver import ResolverStats

#: the matrix timeline the tests run (at 0.1 the guard bands leave no
#: fault window)
SCALE = 0.15
PLAN = cu.matrix_plans(SCALE)["total-outage"]


def whole_run_goodput(report):
    """Benign goodput over the three audited windows: sum(noerror) / sum(sent)."""
    counts = report.auditor.counts.values()
    return sum(c.noerror for c in counts) / sum(c.sent for c in counts)


@pytest.fixture(scope="module")
def cells():
    return run_chaos(ChaosConfig(seed=42), PLAN)


class TestHardenedBeatsVanilla:
    """Under a total authoritative outage plus an NX flood, the hardened
    resolver retains strictly more benign goodput than the vanilla one
    (asserted with a tolerance margin)."""

    def test_fault_window_goodput(self, cells):
        vanilla, hardened = (cells[c].auditor.counts["fault"] for c in ("vanilla", "hardened"))
        assert vanilla.sent > 0
        assert hardened.goodput > vanilla.goodput * 1.25
        assert cu.failures(PLAN, cells) == []

    def test_overall_availability(self, cells):
        assert whole_run_goodput(cells["hardened"]) > whole_run_goodput(cells["vanilla"])

    def test_resilience_mechanisms_actually_fired(self, cells):
        counters = resilience_counters(cells["hardened"].resolver)
        assert counters["stale_fastpath_responses"] > 0
        assert counters["breaker_opens"] > 0
        assert counters["shed_requests"] > 0
        assert counters["deadline_exhausted"] > 0
        # ...and none of them fired in the vanilla cell (stale/shed/
        # deadline machinery does not exist there).
        vanilla = resilience_counters(cells["vanilla"].resolver)
        assert vanilla["stale_fastpath_responses"] == 0
        assert vanilla["stale_responses"] == 0
        assert vanilla["shed_requests"] == 0
        assert vanilla["deadline_exhausted"] == 0

    def test_dcc_sheds_suspects_first(self, cells):
        """hardened+dcc: the convicted attacker is what admission control
        sheds, and benign goodput is kept as in the hardened cell."""
        both = cells["hardened+dcc"]
        assert both.info["dcc_policed"] > 0
        assert resilience_counters(both.resolver)["shed_suspected"] > 0
        assert both.auditor.counts["fault"].goodput >= cells["hardened"].auditor.counts["fault"].goodput

    def test_vanilla_cell_matches_seed_resolver(self, cells):
        """The vanilla cell must really be the seed resolver: legacy
        hold-downs engaged, no adaptive machinery configured."""
        stats = cells["vanilla"].resolver
        assert stats.server_backoffs > 0
        assert stats.breaker_half_opens == 0  # legacy has no probe stage


class TestDeterminism:
    HARDENED = dict(PLAN, cells=["hardened"], compare=None)

    def test_double_run_digest_identical(self, cells):
        again = run_chaos(ChaosConfig(seed=42), self.HARDENED)
        first = {"hardened": cells["hardened"]}
        assert cu.canonical_metrics(again) == cu.canonical_metrics(first)
        assert again["hardened"].timeline == cells["hardened"].timeline
        assert again["hardened"].info == cells["hardened"].info

    def test_seed_changes_digest(self, cells):
        other = run_chaos(ChaosConfig(seed=7), self.HARDENED)
        assert cu.canonical_metrics(other) != cu.canonical_metrics({"hardened": cells["hardened"]})


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


class TestPlumbing:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix cell"):
            run_chaos(ChaosConfig(), dict(PLAN, cells=["vanilla", "bogus"]))

    def test_every_plan_cell_is_defined(self):
        for plan in cu.PLANS.values():
            cu.check_plan(plan)
            assert set(plan["cells"]) <= set(cu.CELLS)
            assert set(plan.get("compare", [])) <= set(plan["cells"])

    @pytest.mark.parametrize("compare", [["hardened", "dcc"], ["hardened"], ["a", "b", "c"]])
    def test_compare_outside_cells_rejected(self, compare):
        with pytest.raises(ValueError, match="compare"):
            run_chaos(ChaosConfig(), dict(PLAN, compare=compare))

    def test_plan_keys_are_checked(self):
        with pytest.raises(ValueError, match="missing keys"):
            cu.check_plan({k: v for k, v in PLAN.items() if k != "rates"})
        with pytest.raises(ValueError, match="unknown keys"):
            cu.check_plan(dict(PLAN, schedule=[]))

    def test_clients_scale_with_timeline(self):
        plan = cu.matrix_plans(0.5)["crash-ramp"]
        scenario, clients = cu._build(ChaosConfig(seed=1), plan, "vanilla")
        # the plans name these nodes by literal address
        assert scenario.target_ans_addrs == [target_ans_addr(0), target_ans_addr(1)]
        assert [r.address for r in scenario.resolvers] == [RESOLVER_ADDR]
        assert sorted(clients) == ["attack", "fresh"]  # a rate of 0 builds no client
        assert clients["attack"]._total == 1100 * 30  # rates stay at paper values
        outage, ramp = schedule_from_dicts(plan["faults"])
        assert (outage.at, outage.duration) == (12.5, 7.5)
        assert (ramp.start, ramp.end, ramp.ramp) == (12.5, 22.5, 2.5)
        assert ramp.loss == 0.35  # a probability, not a time
        assert ramp.latency == 0.020  # RTT-tied, stays at the paper value
        # the DCC monitor and policies follow the compressed timeline
        shim = cu._build(ChaosConfig(seed=1), plan, "dcc")[0].shims[0]
        assert shim.config.monitor.window == 1.0
        assert shim.config.monitor.suspicion_period == 30.0
        assert {t.duration for t in shim.config.policy_templates.values()} == {10.0, 15.0}

    def test_report_renders(self, cells):
        report = cu.render_report(ChaosConfig(seed=42), "total-outage", PLAN, cells)
        assert "plan total-outage" in report
        for cell in PLAN["cells"]:
            assert f"--- cell {cell} ---" in report
        assert "hardened beats vanilla on fault-window goodput" in report
        assert "resilience-layer counters" in report
