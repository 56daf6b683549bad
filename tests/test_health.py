"""Unit tests for the per-upstream health layer (server/health.py)."""

import random

import pytest

from repro.server.health import (
    BreakerState,
    HealthConfig,
    HealthRegistry,
    HealthStats,
    UpstreamHealth,
)


def make(mode="adaptive", **overrides):
    defaults = dict(mode=mode, base_timeout=0.8, failure_threshold=3)
    defaults.update(overrides)
    return UpstreamHealth(HealthConfig(**defaults), HealthStats())


def rng():
    return random.Random(7)


class TestLegacyParity:
    """mode="legacy" must reproduce the seed resolver bit-for-bit."""

    def test_ewma_srtt(self):
        h = make(mode="legacy")
        h.on_success(0.1, now=0.0)
        assert h.srtt == pytest.approx(0.1)
        h.on_success(0.2, now=1.0)
        assert h.srtt == pytest.approx(0.7 * 0.1 + 0.3 * 0.2)

    def test_failure_doubles_srtt(self):
        h = make(mode="legacy")
        h.on_success(0.5, now=0.0)
        h.on_failure(1.0, rng())
        assert h.srtt == pytest.approx(0.5 * 2 + 0.01)

    def test_failure_penalty_capped_at_60(self):
        h = make(mode="legacy")
        h.on_success(50.0, now=0.0)
        h.on_failure(1.0, rng())
        assert h.srtt == 60.0

    def test_failure_without_sample_starts_from_base_timeout(self):
        h = make(mode="legacy")
        h.on_failure(0.0, rng())
        assert h.srtt == pytest.approx(0.8 * 2 + 0.01)

    def test_karn_not_applied_in_legacy(self):
        h = make(mode="legacy")
        h.on_success(0.1, now=0.0, retransmitted=True)
        assert h.srtt == pytest.approx(0.1)
        assert h.stats.karn_rejections == 0

    def test_hold_down_expiry_reenters_closed_without_probe(self):
        h = make(mode="legacy", failure_threshold=2)  # HOLD_DOWN = 2.0
        assert h.on_failure(0.0, rng()) is False
        assert h.on_failure(0.1, rng()) is True
        assert h.state is BreakerState.OPEN
        assert not h.available(1.0)
        assert h.open_until == pytest.approx(0.1 + 2.0)
        # Hold-down lapse: straight back to CLOSED, no half-open stage.
        assert h.available(2.2)
        assert h.state is BreakerState.CLOSED
        assert h.stats.breaker_half_opens == 0

    def test_streak_keeps_counting_through_hold_down(self):
        """Seed semantics: stragglers timing out during a hold-down keep
        feeding the streak, and re-crossing the threshold *extends* it."""
        h = make(mode="legacy", failure_threshold=2)  # HOLD_DOWN = 2.0
        h.on_failure(0.0, rng())
        assert h.on_failure(0.1, rng()) is True  # open until 2.1
        h.on_failure(0.5, rng())
        assert h.on_failure(0.6, rng()) is True  # re-trip while OPEN
        assert h.open_until == pytest.approx(0.6 + 2.0)

    def test_timeout_is_fixed(self):
        h = make(mode="legacy")
        h.on_success(0.3, now=0.0)
        h.on_failure(1.0, rng())
        assert h.timeout() == 0.8

    def test_transmission_timeout_is_a_noop(self):
        h = make(mode="legacy")
        h.on_transmission_timeout()
        assert h.timeout() == 0.8


class TestAdaptiveEstimator:
    """RFC 6298 SRTT/RTTVAR/RTO arithmetic."""

    def test_first_sample(self):
        h = make()
        h.on_success(0.2, now=0.0)
        assert h.srtt == pytest.approx(0.2)
        assert h.rttvar == pytest.approx(0.1)
        # RTO = SRTT + max(G, K*RTTVAR) = 0.2 + 0.4
        assert h.timeout() == pytest.approx(0.6)

    def test_subsequent_sample(self):
        h = make()
        h.on_success(0.2, now=0.0)
        h.on_success(0.1, now=1.0)
        rttvar = 0.75 * 0.1 + 0.25 * abs(0.2 - 0.1)
        srtt = 0.875 * 0.2 + 0.125 * 0.1
        assert h.rttvar == pytest.approx(rttvar)
        assert h.srtt == pytest.approx(srtt)
        assert h.timeout() == pytest.approx(srtt + 4.0 * rttvar)

    def test_rto_clamped_to_min(self):
        h = make(rto_min=0.1)
        h.on_success(0.001, now=0.0)
        h.on_success(0.001, now=0.1)  # rttvar collapses
        for i in range(20):
            h.on_success(0.001, now=0.2 + i * 0.1)
        assert h.timeout() == 0.1

    def test_karn_rejects_retransmitted_samples(self):
        h = make()
        h.on_success(0.2, now=0.0)
        h.on_success(5.0, now=1.0, retransmitted=True)
        assert h.srtt == pytest.approx(0.2)  # estimator untouched
        assert h.stats.karn_rejections == 1
        assert h.stats.rtt_samples == 1

    def test_karn_rejected_sample_still_resets_streak(self):
        h = make(failure_threshold=3)
        h.on_failure(0.0, rng())
        h.on_failure(0.1, rng())
        assert h.streak == 2
        h.on_success(0.2, now=0.5, retransmitted=True)
        assert h.streak == 0
        assert h.state is BreakerState.CLOSED

    def test_failure_backs_rto_off_exponentially(self):
        h = make(rto_max=10.0)
        h.on_success(0.2, now=0.0)  # rto 0.6
        h.on_failure(1.0, rng())
        assert h.timeout() == pytest.approx(1.2)
        h.on_failure(2.0, rng())
        assert h.timeout() == pytest.approx(2.4)

    def test_rto_backoff_capped(self):
        h = make(rto_max=2.0)
        for i in range(6):
            h.on_transmission_timeout()
        assert h.timeout() == 2.0

    def test_success_resets_streak(self):
        h = make(failure_threshold=3)
        h.on_failure(0.0, rng())
        h.on_failure(0.1, rng())
        h.on_success(0.01, now=0.2)
        assert h.streak == 0
        h.on_failure(0.3, rng())
        assert h.state is BreakerState.CLOSED


class TestBreaker:
    def test_opens_after_threshold(self):
        h = make(failure_threshold=3)
        assert h.on_failure(0.0, rng()) is False
        assert h.on_failure(0.1, rng()) is False
        assert h.on_failure(0.2, rng()) is True
        assert h.state is BreakerState.OPEN
        assert not h.available(0.3)
        assert h.stats.breaker_opens == 1

    def test_first_open_interval_is_jittered_within_bounds(self):
        base, cap = 0.5, 30.0
        for seed in range(20):
            h = make(failure_threshold=1, backoff_base=base, backoff_cap=cap)
            h.on_failure(0.0, random.Random(seed))
            interval = h.open_until
            # Decorrelated jitter, first draw: U(base, 3*base).
            assert base <= interval <= min(cap, 3.0 * base)

    def test_open_interval_capped(self):
        h = make(failure_threshold=1, backoff_base=0.5, backoff_cap=1.0)
        r = rng()
        for i in range(8):  # repeated probe failures grow the interval
            h.on_failure(float(i), r)
            h.available(h.open_until)  # force OPEN -> HALF_OPEN
            h.acquire_probe(h.open_until)
        assert h.open_until - 7.0 <= 1.0

    def test_open_transitions_to_half_open_after_deadline(self):
        h = make(failure_threshold=1)
        h.on_failure(0.0, rng())
        reopen = h.open_until
        assert not h.available(reopen - 1e-9)
        assert h.available(reopen)
        assert h.state is BreakerState.HALF_OPEN
        assert h.stats.breaker_half_opens == 1

    def test_half_open_admits_a_single_probe(self):
        h = make(failure_threshold=1)
        h.on_failure(0.0, rng())
        t = h.open_until
        assert h.acquire_probe(t) is True
        assert h.acquire_probe(t) is False
        assert not h.available(t)  # probe slot taken
        h.release_probe()
        assert h.acquire_probe(t) is True

    def test_probe_success_closes(self):
        h = make(failure_threshold=1)
        h.on_failure(0.0, rng())
        t = h.open_until
        assert h.acquire_probe(t)
        h.on_success(0.02, now=t + 0.02)
        assert h.state is BreakerState.CLOSED
        assert h.stats.breaker_closes == 1
        assert h.available(t + 0.03)

    def test_probe_failure_reopens_with_longer_interval(self):
        h = make(failure_threshold=1, backoff_base=0.5, backoff_cap=30.0)
        h.on_failure(0.0, rng())
        first = h.open_until
        assert h.acquire_probe(first)
        assert h.on_failure(first + 0.8, rng()) is True
        assert h.state is BreakerState.OPEN
        assert h.stats.probe_failures == 1
        assert h.open_until > first

    def test_failures_while_open_are_ignored_in_adaptive_mode(self):
        h = make(failure_threshold=1)
        h.on_failure(0.0, rng())
        deadline = h.open_until
        assert h.on_failure(0.1, rng()) is False
        assert h.open_until == deadline  # not extended by stragglers

    def test_threshold_zero_disables_breaker(self):
        h = make(failure_threshold=0)
        for i in range(10):
            assert h.on_failure(float(i), rng()) is False
        assert h.state is BreakerState.CLOSED


class TestRegistry:
    def build(self, **overrides):
        r = rng()
        return HealthRegistry(
            HealthConfig(mode="adaptive", failure_threshold=1, **overrides),
            lambda: r,
        )

    def test_unknown_servers_are_available_with_base_timeout(self):
        reg = self.build(base_timeout=0.7)
        assert reg.available("a", 0.0)
        assert reg.timeout_for("a") == 0.7
        assert reg.selection_rtt("a") == 0.0
        assert "a" not in reg._servers

    def test_select_filters_open_breakers(self):
        reg = self.build()
        reg.on_failure("a", 0.0)  # threshold 1: open immediately
        pick = reg.select(["a", "b"], 0.0, rng(), explore=0.0)
        assert pick == "b"
        assert reg.select(["a"], 0.0, rng(), explore=0.0) is None

    def test_select_prefers_lowest_srtt(self):
        reg = self.build()
        reg.on_success("fast", 0.01, 0.0)
        reg.on_success("slow", 0.5, 0.0)
        assert reg.select(["slow", "fast"], 1.0, rng(), explore=0.0) == "fast"

    def test_counters_land_in_external_stats_sink(self):
        class Sink:
            rtt_samples = 0
            karn_rejections = 0
            failure_events = 0
            breaker_opens = 0
            breaker_half_opens = 0
            breaker_closes = 0
            probe_failures = 0

        sink = Sink()
        r = rng()
        reg = HealthRegistry(
            HealthConfig(mode="adaptive", failure_threshold=1),
            lambda: r,
            stats=sink,
        )
        reg.on_success("a", 0.1, 0.0)
        reg.on_failure("a", 1.0)
        assert sink.rtt_samples == 1
        assert sink.failure_events == 1
        assert sink.breaker_opens == 1

    def test_tables_and_clear(self):
        reg = self.build()
        reg.on_success("a", 0.1, 0.0)
        reg.on_failure("b", 0.0)
        assert reg.srtt_table() == {"a": pytest.approx(0.1)}
        assert [server for server in ("a", "b") if not reg.available(server, 0.0)] == ["b"]
        reg.clear()
        assert reg._servers == {}
        assert reg.available("b", 0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            HealthConfig(mode="bogus")
