"""Smoke tests for every experiment driver (tiny configurations)."""

import tracemalloc

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode
from repro.experiments import fig2_ratelimits, fig4_attacks, fig8_resilience
from repro.experiments import fig10_overhead, fig11_delay, table1_state
from repro.experiments import common
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.workloads.schedule import ClientSpec
from repro.workloads.zonegen import build_ff_attacker_zone

from tests.zone_fixtures import record_count


class TestCommonScenario:
    def test_builds_all_topology_variants(self):
        config = ScenarioConfig(
            duration=2.0, target_ans_count=2, resolver_count=2,
            with_forwarder=True, use_dcc=True, dcc_on_forwarder=True,
            rr_channel_capacity=500.0,
        )
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("c", 0.0, 2.0, 5.0, "WC")])
        result = scenario.run()
        assert len(result.clients["c"].records) > 0
        assert len(scenario.shims) == 3  # 2 resolvers + forwarder

    def test_switching_pattern_changes_at_third(self):
        config = ScenarioConfig(duration=6.0, channel_capacity=10_000.0)
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("sw", 0.0, 6.0, 20.0, "NX_THEN_WC")])
        result = scenario.run()
        records = scenario.clients["sw"].records
        early = [r for r in records if r.sent_at < 1.5]
        late = [r for r in records if r.sent_at > 3.0]
        # NX names draw NXDOMAIN, WC names a wildcard NOERROR answer
        assert all(r.rcode == RCode.NXDOMAIN for r in early)
        assert all(r.rcode == RCode.NOERROR for r in late)

    def test_unknown_pattern_rejected(self):
        scenario = AttackScenario(ScenarioConfig(duration=1.0))
        with pytest.raises(ValueError):
            scenario.add_clients([ClientSpec("x", 0.0, 1.0, 1.0, "BOGUS")])


def _zone_records(zone):
    """Every record of ``zone`` in insertion order: owner, type, TTL, rdata."""
    return [
        (str(owner), record.rrtype, record.ttl, record.rdata)
        for owner in zone.owners()
        for rrset in zone.rrsets_at(owner).values()
        for record in rrset
    ]


class TestFfZoneOnDemand:
    """The attacker zone holds its FF fan-out only once an FF client exists."""

    @staticmethod
    def _attacker_zone(scenario):
        return scenario.attacker_ans.zone_for(Name.from_text(common.ATTACKER_ORIGIN))

    def test_nx_scenario_holds_only_the_apex(self):
        scenario = AttackScenario(ScenarioConfig(duration=2.0))
        scenario.add_clients([ClientSpec("nx", 0.0, 2.0, 20.0, "NX")])
        assert record_count(self._attacker_zone(scenario)) == 3
        scenario.run()
        assert len(scenario.clients["nx"].records) > 0
        assert scenario.attacker_ans.stats.queries_received == 0

    def test_building_a_scenario_allocates_under_one_mib(self):
        AttackScenario(ScenarioConfig(seed=1))  # imports and one-time caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scenario = AttackScenario(ScenarioConfig(seed=1))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del scenario  # alive through the measurement
        assert held < 1 << 20, f"{held} B"

    def test_ff_clients_install_the_builders_zone_once(self, monkeypatch):
        calls = []
        add = common.add_ff_delegations

        def counted_add(*args):
            calls.append(args)
            add(*args)

        monkeypatch.setattr(common, "add_ff_delegations", counted_add)
        config = ScenarioConfig(duration=1.0)
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("ff", 0.0, 1.0, 5.0, "FF", is_attacker=True)])
        expected = _zone_records(build_ff_attacker_zone(
            common.ATTACKER_ORIGIN, common.TARGET_ORIGIN, "ns1", common.ATTACKER_ANS_ADDR,
            instances=config.ff_instances, fanout=config.ff_fanout,
        ))
        assert len(expected) == 3 + config.ff_instances * config.ff_fanout * (config.ff_fanout + 1)
        assert _zone_records(self._attacker_zone(scenario)) == expected
        scenario.add_clients([ClientSpec("ff2", 0.0, 1.0, 5.0, "FF")])  # a second FF client adds nothing
        assert len(calls) == 1
        assert _zone_records(self._attacker_zone(scenario)) == expected


class TestFig2:
    def test_histogram_structure(self):
        result = fig2_ratelimits.run_figure2(scale=0.05, resolver_count=3)
        assert len(result.measurements) == 3
        for label in ("IRL WC", "IRL NX", "ERL CQ", "ERL FF"):
            assert set(result.histogram[label]) == set(fig2_ratelimits.BUCKET_LABELS)
            assert sum(result.histogram[label].values()) == 3
        assert 0.0 <= result.bucket_accuracy() <= 1.0
        truth = result.truth_histogram()
        assert sum(truth["IRL true"].values()) == 3


class TestFig4:
    def test_setup_a_point(self):
        sweeps = fig4_attacks.run_setup_a(rates=(2,), fanouts=(5,), time_scale=0.1)
        assert len(sweeps) == 1 and len(sweeps[0].points) == 1
        assert 0.0 <= sweeps[0].points[0].benign_success <= 1.0

    def test_setup_c_shows_capacity_knee(self):
        sweeps = fig4_attacks.run_setup_c(rates=(30, 200), time_scale=0.1)
        assert fig4_attacks.failures({"c": sweeps}) == []

    def test_setup_d_egress_scaling(self):
        sweeps = fig4_attacks.run_setup_d(rates=(40,), egress_sizes=(2, 8), time_scale=0.1)
        assert fig4_attacks.failures({"d": sweeps}) == []


class TestFig8:
    def test_scenario_run_structure(self):
        run = fig8_resilience.run_scenario("wildcard", use_dcc=True, scale=0.05)
        assert set(run.result.effective_qps) == {"heavy", "medium", "light", "attacker"}
        rows = fig8_resilience.summarize(run, [("p", 0, 3)])
        assert len(rows) == 4

    def test_ff_attacker_uses_wire_metric(self):
        run = fig8_resilience.run_scenario("amplification", use_dcc=False, scale=0.05)
        assert run.series("attacker") is not run.result.effective_qps["attacker"]


class TestFig10:
    def test_overhead_point(self):
        points = fig10_overhead.run_server_sweep([1000], clients=100, ops=2000)
        point = points[0]
        assert point.dcc_ops_per_sec > 0
        assert point.dcc_state_bytes > 0
        assert point.resolver_state_bytes > 0

    def test_dcc_compute_insensitive_to_entities(self):
        # Within 3x across a 40x entity-count change.
        sweep = fig10_overhead.run_server_sweep([500, 20_000], clients=100, ops=4000)
        assert fig10_overhead.failures({"a": sweep}) == []


class TestFig11:
    def test_end_to_end_dcc_adds_marginal_delay(self):
        pair = [fig11_delay.run_end_to_end(False, requests=200), fig11_delay.run_end_to_end(True, requests=200)]
        assert fig11_delay.failures(pair) == []

    def test_control_path_scales_flat(self):
        small = fig11_delay.run_control_path(100, 100, requests=2000)
        large = fig11_delay.run_control_path(10_000, 10_000, requests=2000)
        assert fig11_delay.failures([small, large]) == []


class TestTable1:
    def test_dcc_state_not_larger(self):
        snapshot = table1_state.run_table1(duration=4.0, clients=4, rate=50.0)
        assert table1_state.failures(snapshot) == []
        assert snapshot.dcc["per-client (monitoring, policies)"] >= 4
