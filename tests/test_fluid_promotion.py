"""Promotion/demotion: determinism, bounds, seeding, trigger paths."""

from repro.fluid import (
    FluidBridge,
    PromotionConfig,
    PromotionController,
    build_cohorts,
    slice_key,
)
from repro.fluid.cohort import CohortSpec
from repro.netsim.sim import Simulator
from repro.util.seeds import derive_seed
from repro.util.tokenbucket import TokenBucket


class RecordingFactory:
    """Materialize/dematerialize callbacks that only take notes."""

    def __init__(self, refuse=False):
        self.created = []  # (key, count, sub_seed, now)
        self.retired = []  # (handle, now)
        self.refuse = refuse

    def materialize(self, cohort, slice_idx, count, sub_seed, now):
        if self.refuse:
            return None
        handle = (slice_key(cohort.spec.name, slice_idx), count, sub_seed, now)
        self.created.append(handle)
        return handle

    def dematerialize(self, handle, now):
        self.retired.append((handle, now))


def build_stack(
    seed=5,
    clients=8,
    rate=40.0,
    capacity=500.0,
    config=None,
    promotable=True,
    horizon=10.0,
):
    """A suspect NX cohort on a bridge with a promotion controller."""
    sim = Simulator(seed=seed)
    bridge = FluidBridge(sim, tick=0.1, stop_at=horizon)
    bridge.add_channel("10.0.0.2", TokenBucket(rate=capacity, burst=capacity * 0.1))
    spec = CohortSpec(
        name="suspect", clients=clients, rate=rate, zone="target-domain.",
        destination="10.0.0.2", stop=horizon, pattern="NX", slices=4,
        promotable=promotable,
    )
    for cohort in build_cohorts([spec]):
        bridge.add_cohort(cohort)
    controller = PromotionController(
        sim,
        bridge,
        config
        or PromotionConfig(
            decide_interval=1.0, threshold_qps=25.0, promote_per_flag=2,
            max_promoted=64, quiet_period=3.0, stop_at=horizon,
        ),
        seed=seed,
    )
    factory = RecordingFactory()
    controller.materialize = factory.materialize
    controller.dematerialize = factory.dematerialize
    return sim, bridge, controller, factory


class TestSketchTrigger:
    def test_heavy_nx_slices_promote(self):
        sim, bridge, controller, factory = build_stack()
        bridge.start()
        controller.start()
        sim.run(until=2.0)
        # Each slice: 2 clients x 40 QPS of NX misses >> 25 QPS threshold.
        assert controller.promotions == 4
        assert {key for key, *_ in factory.created} == {
            slice_key("suspect", i) for i in range(4)
        }

    def test_quiet_slices_demote(self):
        sim, bridge, controller, factory = build_stack()
        bridge.start()
        controller.start()
        sim.run(until=10.0)
        # Promoted slices stop contributing fluid sketch evidence, so
        # with no external flag refresh they fall quiet and demote.
        assert controller.demotions >= 4
        assert factory.retired

    def test_promoted_now_never_exceeds_cap(self):
        config = PromotionConfig(
            decide_interval=1.0, threshold_qps=25.0, promote_per_flag=2,
            max_promoted=3, quiet_period=100.0, stop_at=10.0,
        )
        sim, bridge, controller, factory = build_stack(config=config)
        bridge.start()
        controller.start()
        sim.run(until=10.0)
        assert controller.promoted_now <= 3
        assert sum(count for _, count, *_ in factory.created) <= 3


class TestDeterminism:
    def test_double_run_event_log_byte_identical(self):
        digests = []
        event_logs = []
        for _ in range(2):
            sim, bridge, controller, _ = build_stack()
            bridge.start()
            controller.start()
            sim.run(until=10.0)
            digests.append((controller.events_digest(), bridge.digest()))
            event_logs.append(list(controller.events))
        assert digests[0] == digests[1]
        assert event_logs[0] == event_logs[1]
        # The log must actually contain promotion traffic for the
        # assertion above to mean anything.
        assert any(action == "promote" for _, action, _, _ in event_logs[0])

    def test_repromotion_gets_fresh_epoch_seed(self):
        sim, bridge, controller, factory = build_stack()
        bridge.start()
        controller.start()
        sim.run(until=10.0)
        by_key = {}
        for key, _, sub_seed, _ in factory.created:
            by_key.setdefault(key, []).append(sub_seed)
        repromoted = {k: seeds for k, seeds in by_key.items() if len(seeds) > 1}
        assert repromoted, "expected at least one demote -> re-promote cycle"
        for key, seeds in repromoted.items():
            assert len(set(seeds)) == len(seeds)
            assert seeds[0] == derive_seed(5, "promote", key, 0)
            assert seeds[1] == derive_seed(5, "promote", key, 1)


class TestFlagPath:
    def test_external_flag_promotes(self):
        sim, bridge, controller, factory = build_stack()
        assert controller.flag(slice_key("suspect", 1), now=0.5)
        assert controller.promoted_now == 2
        assert list(controller._live) == [slice_key("suspect", 1)]
        assert controller.live_handles()[0][0] == slice_key("suspect", 1)

    def test_flag_refresh_restarts_quiet_timer(self):
        sim, bridge, controller, factory = build_stack()
        key = slice_key("suspect", 0)
        controller.flag(key, now=0.0)
        controller.flag(key, now=2.9)  # refresh just before quiet_period
        controller._demote_quiet(3.5)  # 3.5 - 2.9 < 3.0: stays live
        assert list(controller._live) == [key]
        controller._demote_quiet(6.0)  # now quiet
        assert list(controller._live) == []

    def test_unpromotable_cohort_rejected(self):
        sim, bridge, controller, factory = build_stack(promotable=False)
        assert not controller.flag(slice_key("suspect", 0), now=0.0)
        assert controller.promoted_now == 0

    def test_foreign_key_rejected(self):
        sim, bridge, controller, factory = build_stack()
        assert not controller.flag("10.1.9.1", now=0.0)
        assert not controller.flag("unknown/2", now=0.0)

    def test_refused_materialization_rolls_back(self):
        sim, bridge, controller, _ = build_stack()
        refusing = RecordingFactory(refuse=True)
        controller.materialize = refusing.materialize
        cohort = bridge.cohort("suspect")
        before = sum(cohort.active)
        assert not controller.flag(slice_key("suspect", 0), now=0.0)
        assert sum(cohort.active) == before
        assert controller.promoted_now == 0

    def test_demote_all_clears_and_logs(self):
        sim, bridge, controller, factory = build_stack()
        controller.flag(slice_key("suspect", 0), now=0.0)
        controller.flag(slice_key("suspect", 1), now=0.0)
        controller.demote_all(now=1.0)
        assert list(controller._live) == []
        assert controller.promoted_now == 0
        assert controller.demotions == 2
        assert len(factory.retired) == 2
