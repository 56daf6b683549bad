"""The ``repro scale`` experiment: digests, verdict parity, goodput.

The goodput-agreement tolerances asserted here are the documented
accuracy envelope of the fluid model (docs/SCALING.md):

- **unconstrained** channel: fluid served-rate within 10% of packet
  client goodput (measured ~2%; the slack covers ramp/drain edges);
- **constrained** DCC-scheduled channel: fluid upstream rate within
  25% of the packet run's authoritative response throughput (measured
  ~18%: the packet path adds bucket-burst drain and resolver NS
  traffic the expected-value model does not carry).  Client goodput
  under deep overload is *out of model scope* -- late answers past the
  client timeout count for the channel but not for the client.
"""

import pytest

from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.scale import (
    MODES,
    ModeResult,
    ScaleConfig,
    ScaleScenario,
    compare_verdicts,
    run_mode,
)
from repro.fluid import FluidBridge, build_cohorts
from repro.fluid.cohort import CohortSpec
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.util.tokenbucket import TokenBucket
from repro.workloads.cohorts import packet_cohort_clients
from repro.workloads.zonegen import build_root_zone, build_target_zone

SMALL = dict(clients=2_000, duration=8.0)


def small_config(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return ScaleConfig(seed=42, **params)


class TestScaleScenario:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ScaleScenario(small_config(), "quantum")

    @pytest.mark.parametrize("mode", MODES)
    def test_double_run_digest_identical(self, mode):
        first = run_mode(small_config(), mode)
        second = run_mode(small_config(), mode)
        assert first.digest == second.digest
        assert first.packet_messages == second.packet_messages

    def test_fluid_mode_conserves_and_convicts_attacker(self):
        result = run_mode(small_config(), "fluid")
        led = result.ledger
        assert abs(led["residual"]) <= 1e-6 * led["offered"]
        assert result.verdicts["10.1.9.1"] == "convicted"
        assert result.promotions == 0

    def test_hybrid_promotes_and_matches_packet_verdicts(self):
        hybrid = run_mode(small_config(), "hybrid")
        packet = run_mode(small_config(), "packet")
        assert hybrid.promotions > 0
        assert hybrid.promoted_addresses
        assert compare_verdicts(hybrid, packet) == []
        # The flagged suspect slices are actually convicted, not merely
        # matching as all-normal.
        convicted = [
            addr for addr in hybrid.promoted_addresses
            if hybrid.verdicts.get(addr) == "convicted"
        ]
        assert convicted

    def test_compare_verdicts_reports_mismatches(self):
        hybrid = ModeResult(
            mode="hybrid", digest="", events_processed=0, packet_messages=0,
            wall_seconds=1.0, verdicts={"10.9.suspect.0.0": "convicted"},
            ledger={}, promotions=1, demotions=0,
            promoted_addresses=["10.9.suspect.0.0"], fluid_served=0.0,
            client_seconds=0.0,
        )
        packet = ModeResult(
            mode="packet", digest="", events_processed=0, packet_messages=0,
            wall_seconds=1.0, verdicts={"10.9.suspect.0.0": "normal"},
            ledger={}, promotions=0, demotions=0, promoted_addresses=[],
            fluid_served=0.0, client_seconds=0.0,
        )
        problems = compare_verdicts(hybrid, packet)
        assert problems and "10.9.suspect.0.0" in problems[0]

    def test_fluid_population_dwarfs_packet_cost(self):
        result = run_mode(small_config(), "fluid")
        # The point of the subsystem: simulated client-seconds per wall
        # second must far exceed what per-packet simulation achieves
        # (the packet reference manages ~30 on the same scenario).
        assert result.clients_per_sec > 1_000


class TestGoodputAgreement:
    DURATION = 10.0

    def _cohort_spec(self, destination):
        return CohortSpec(
            name="bench", clients=30, rate=2.0, zone="target-domain.",
            destination=destination, stop=self.DURATION, pattern="WC", slices=4,
        )

    def _fluid_rates(self, capacity):
        sim = Simulator(seed=11)
        bridge = FluidBridge(sim, tick=0.1, stop_at=self.DURATION)
        bridge.add_channel(
            "10.0.0.2", TokenBucket(rate=capacity, burst=capacity * 0.1)
        )
        for cohort in build_cohorts([self._cohort_spec("10.0.0.2")]):
            bridge.add_cohort(cohort)
        bridge.start()
        sim.run(until=self.DURATION)
        led = bridge.ledger()
        return (
            bridge.served_total() / self.DURATION,
            led["upstream"] / self.DURATION,
        )

    def test_unconstrained_client_goodput_within_10_percent(self):
        sim = Simulator(seed=11)
        net = Network(sim)
        root_zone = build_root_zone(
            {"target-domain.": ("ns1.target-domain.", "10.0.0.2")}
        )
        zone = build_target_zone(
            "target-domain.", "ns1", "10.0.0.2",
            answer_ttl=1, negative_ttl=1, ff_ttl=1,
        )
        net.attach(AuthoritativeServer("10.0.0.1", zones=[root_zone]))
        net.attach(AuthoritativeServer("10.0.0.2", zones=[zone]))
        resolver = RecursiveResolver("10.0.1.1", ResolverConfig())
        resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
        net.attach(resolver)
        clients = packet_cohort_clients(
            self._cohort_spec("10.0.0.2"), net, ["10.0.1.1"]
        )
        for client in clients:
            client.start()
        sim.run(until=self.DURATION + 3.0)
        packet_goodput = sum(
            sum(1 for r in c.records if r.success) for c in clients
        ) / self.DURATION
        fluid_goodput, _ = self._fluid_rates(capacity=500.0)
        assert fluid_goodput == pytest.approx(packet_goodput, rel=0.10)

    def test_constrained_channel_throughput_within_25_percent(self):
        capacity = 30.0  # demand is 60 QPS: the channel saturates
        config = ScenarioConfig(
            seed=11, duration=self.DURATION, channel_capacity=capacity,
            use_dcc=True, ff_instances=4,
        )
        scenario = AttackScenario(config)
        clients = packet_cohort_clients(
            self._cohort_spec(scenario.target_ans_addrs[0]),
            scenario.net,
            [scenario.resolvers[0].address],
        )
        for client in clients:
            client.start()
        scenario.run(grace=3.0)
        packet_channel = (
            scenario.target_ans[0].stats.responses_sent / self.DURATION
        )
        _, fluid_upstream = self._fluid_rates(capacity=capacity)
        assert fluid_upstream == pytest.approx(packet_channel, rel=0.25)
        # Both sides saturate near the configured capacity.
        assert fluid_upstream == pytest.approx(capacity, rel=0.05)
