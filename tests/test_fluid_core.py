"""Fluid cohorts + bridge: conservation, coupling, digest determinism."""

import os
import subprocess
import sys

import pytest

from repro.fluid import (
    FluidBridge,
    build_cohorts,
    parse_slice_key,
    pool_miss_ratio,
    slice_key,
)
from repro.fluid.cohort import Cohort, CohortSpec
from repro.netsim.sim import Simulator
from repro.util.tokenbucket import TokenBucket


def spec(**overrides):
    base = dict(
        name="c", clients=1000, rate=0.1, zone="target-domain.",
        destination="10.0.0.2", stop=10.0, pattern="WC", slices=8,
    )
    base.update(overrides)
    return CohortSpec(**base)


class TestCohortSpec:
    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="unknown fluid pattern"):
            spec(pattern="CQ")

    def test_rejects_nonpositive_rate_and_slices(self):
        with pytest.raises(ValueError):
            spec(rate=0.0)
        with pytest.raises(ValueError):
            spec(slices=0)

    def test_aggregate_rate(self):
        assert spec(clients=200, rate=0.5).aggregate_rate == pytest.approx(100.0)


class TestPoolMissRatio:
    def test_bounds(self):
        ratio = pool_miss_ratio(100.0, 512, 1.0, 30.0)
        assert 0.0 < ratio < 1.0

    def test_hotter_traffic_misses_less(self):
        cold = pool_miss_ratio(1.0, 512, 1.0, 30.0)
        hot = pool_miss_ratio(1000.0, 512, 1.0, 30.0)
        assert hot < cold

    def test_degenerate_inputs_miss_always(self):
        assert pool_miss_ratio(0.0, 512, 1.0, 30.0) == 1.0
        assert pool_miss_ratio(100.0, 0, 1.0, 30.0) == 1.0
        assert pool_miss_ratio(100.0, 512, 1.0, 0.0) == 1.0


class TestCohortIntegration:
    def test_conservation_every_tick(self):
        cohort = Cohort(spec())
        t = 0.0
        for _ in range(50):
            cohort.begin_tick(t, t + 0.1)
            cohort.settle(share=0.3, queue_delay=0.05)
            t += 0.1
            led = cohort.ledger()
            residual = led["offered"] - (
                led["hits"] + led["upstream"] + led["timeouts"] + led["backlog"]
            )
            assert abs(residual) < 1e-6 * max(1.0, led["offered"])

    def test_start_stop_window(self):
        cohort = Cohort(spec(start=2.0, stop=4.0))
        cohort.begin_tick(0.0, 1.0)  # before start
        assert cohort.ledger()["offered"] == 0.0
        cohort.begin_tick(2.0, 3.0)  # inside the window
        assert cohort.ledger()["offered"] == pytest.approx(100.0)
        cohort.begin_tick(5.0, 6.0)  # after stop
        assert cohort.ledger()["offered"] == pytest.approx(100.0)

    def test_full_share_leaves_no_backlog(self):
        cohort = Cohort(spec())
        cohort.begin_tick(0.0, 0.1)
        cohort.settle(share=1.0, queue_delay=0.0)
        assert cohort.ledger()["backlog"] == 0.0

    def test_starved_backlog_expires_as_timeouts(self):
        cohort = Cohort(spec(timeout=1.0))
        t = 0.0
        for _ in range(40):
            cohort.begin_tick(t, t + 0.1)
            cohort.settle(share=0.0, queue_delay=1.0)
            t += 0.1
        led = cohort.ledger()
        assert led["timeouts"] > 0.0
        # Little's-law cap: backlog never exceeds `timeout` seconds of
        # miss demand.
        assert led["backlog"] <= cohort.spec.aggregate_rate * 1.0 + 1e-9

    def test_promote_demote_bookkeeping(self):
        cohort = Cohort(spec(clients=16, slices=4))
        assert cohort.promote_clients(0, 2) == 2
        assert float(cohort.active[0]) == 2.0
        assert float(cohort.promoted[0]) == 2.0
        # More than the slice holds: takes what is there.
        assert cohort.promote_clients(0, 10) == 2
        assert cohort.demote_clients(0, 10) == 4
        assert sum(cohort.active) == 16.0

    def test_promoted_clients_stop_offering(self):
        full = Cohort(spec(clients=16, slices=4))
        half = Cohort(spec(clients=16, slices=4))
        for idx in range(4):
            half.promote_clients(idx, 2)
        full.begin_tick(0.0, 1.0)
        half.begin_tick(0.0, 1.0)
        assert half.ledger()["offered"] == pytest.approx(
            full.ledger()["offered"] / 2.0
        )


class TestBuildCohorts:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate cohort name"):
            build_cohorts([spec(), spec()])


class TestSliceKeys:
    def test_round_trip(self):
        assert parse_slice_key(slice_key("suspect", 3)) == ("suspect", 3)

    def test_foreign_keys_rejected(self):
        assert parse_slice_key("10.1.9.1") is None
        assert parse_slice_key("no-separator") is None


class TestFluidBridge:
    def _bridge(self, sim, rate=50.0, **cohort_overrides):
        bridge = FluidBridge(sim, tick=0.1, stop_at=5.0)
        bridge.add_channel("10.0.0.2", TokenBucket(rate=rate, burst=rate * 0.1))
        for cohort in build_cohorts([spec(**cohort_overrides)]):
            bridge.add_cohort(cohort)
        return bridge

    def test_cohort_needs_registered_channel(self):
        bridge = FluidBridge(Simulator(seed=1))
        with pytest.raises(ValueError, match="unregistered channel"):
            bridge.add_cohort(Cohort(spec()))

    def test_duplicate_channel_rejected(self):
        bridge = FluidBridge(Simulator(seed=1))
        bridge.add_channel("10.0.0.2", TokenBucket(rate=1.0, burst=1.0))
        with pytest.raises(ValueError, match="already registered"):
            bridge.add_channel("10.0.0.2", TokenBucket(rate=1.0, burst=1.0))

    def test_tick_chain_runs_and_conserves(self):
        sim = Simulator(seed=1)
        bridge = self._bridge(sim)
        bridge.start()
        sim.run(until=5.0)
        assert bridge.ticks == 50
        led = bridge.ledger()
        assert led["offered"] > 0.0
        assert abs(led["residual"]) < 1e-6 * led["offered"]

    def test_constrained_channel_grants_at_capacity(self):
        sim = Simulator(seed=1)
        # 100 QPS offered (WC: all misses) against a 50 QPS channel.
        bridge = self._bridge(sim, rate=50.0)
        bridge.start()
        sim.run(until=5.0)
        led = bridge.ledger()
        upstream_rate = led["upstream"] / 5.0
        assert upstream_rate == pytest.approx(50.0, rel=0.15)
        assert led["timeouts"] > 0.0

    def test_fluid_load_drains_the_shared_bucket(self):
        sim = Simulator(seed=1)
        bucket = TokenBucket(rate=50.0, burst=5.0)
        bridge = FluidBridge(sim, tick=0.1, stop_at=5.0)
        bridge.add_channel("10.0.0.2", bucket)
        for cohort in build_cohorts([spec()]):
            bridge.add_cohort(cohort)
        bridge.start()
        sim.run(until=1.05)
        # The fluid mass keeps the shared bucket near empty: a packet
        # flow arriving now finds (almost) no tokens.
        assert bucket.tokens(sim.now) < 5.0

    def test_pressure_sink_sees_backlog(self):
        sim = Simulator(seed=1)
        bridge = self._bridge(sim, rate=10.0)  # heavily constrained
        seen = []
        bridge.pressure_sinks.append(lambda now, backlog: seen.append(backlog))
        bridge.start()
        sim.run(until=2.0)
        assert seen and max(seen) > 0.0

    def test_double_run_digest_identical(self):
        digests = []
        for _ in range(2):
            sim = Simulator(seed=9)
            bridge = self._bridge(sim)
            bridge.start()
            sim.run(until=5.0)
            digests.append(bridge.digest())
        assert digests[0] == digests[1]

    def test_different_population_different_digest(self):
        digests = []
        for clients in (1000, 1001):
            sim = Simulator(seed=9)
            bridge = self._bridge(sim, clients=clients)
            bridge.start()
            sim.run(until=5.0)
            digests.append(bridge.digest())
        assert digests[0] != digests[1]


def test_fluid_drivers_import_without_numpy():
    """The fluid layer is stdlib floats: importing the drivers that run
    it loads no numpy."""
    code = (
        "import sys\n"
        "import repro.experiments.scale, repro.fuzz.runner, repro.workloads.cohorts\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
