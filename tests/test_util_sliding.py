"""Sliding-window counter tests (the reference oracle of test_monitor_packed)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_sliding import SlidingWindowCounter, SlidingWindowRatio


class TestCounter:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SlidingWindowCounter(0)
        with pytest.raises(ValueError):
            SlidingWindowCounter(2.0, buckets=0)

    def test_counts_within_window(self):
        c = SlidingWindowCounter(2.0)
        c.add(0.1)
        c.add(0.2)
        c.add(1.0)
        assert c.total(1.0) == 3

    def test_old_events_age_out(self):
        c = SlidingWindowCounter(2.0, buckets=4)
        c.add(0.0)
        assert c.total(0.0) == 1
        assert c.total(10.0) == 0

    def test_partial_aging(self):
        c = SlidingWindowCounter(2.0, buckets=4)
        c.add(0.1)  # bucket [0.0, 0.5)
        c.add(1.9)  # bucket [1.5, 2.0)
        # At t=2.4, the first bucket has aged out, the second has not.
        assert c.total(2.4) == 1

    def test_rate(self):
        c = SlidingWindowCounter(2.0)
        for i in range(10):
            c.add(0.1 + i * 0.05)
        assert c.rate(1.0) == pytest.approx(5.0)

    def test_weighted_add(self):
        c = SlidingWindowCounter(1.0)
        c.add(0.0, amount=5.0)
        assert c.total(0.5) == 5.0

    def test_reset(self):
        c = SlidingWindowCounter(1.0)
        c.add(0.0)
        c.reset()
        assert c.total(0.0) == 0

    def test_time_jump_clears_everything(self):
        c = SlidingWindowCounter(2.0, buckets=4)
        for i in range(8):
            c.add(i * 0.1)
        assert c.total(100.0) == 0
        c.add(100.0)
        assert c.total(100.0) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), max_size=80))
    def test_total_never_negative_and_bounded(self, times):
        c = SlidingWindowCounter(2.0)
        times = sorted(times)
        for t in times:
            c.add(t)
        now = times[-1] if times else 0.0
        total = c.total(now)
        assert 0 <= total <= len(times)
        # Everything within the last full window must be counted.
        lower = sum(1 for t in times if now - c.window * (1 - 1 / 8) < t <= now)
        assert total >= lower - 1e-9


class TestRatio:
    def test_empty_ratio_is_zero(self):
        r = SlidingWindowRatio(2.0)
        assert r.ratio(0.0) == 0.0

    def test_ratio_basic(self):
        r = SlidingWindowRatio(2.0)
        r.record(0.1, hit=True)
        r.record(0.2, hit=False)
        r.record(0.3, hit=False)
        r.record(0.4, hit=True)
        assert r.ratio(0.5) == pytest.approx(0.5)

    def test_nxdomain_threshold_scenario(self):
        """The paper's NX detector: ratio above 0.2 within the window."""
        r = SlidingWindowRatio(2.0)
        for i in range(8):
            r.record(0.1 * i, hit=(i % 4 == 0))  # 25% hits
        assert r.ratio(0.8) > 0.2

    def test_observations(self):
        r = SlidingWindowRatio(2.0)
        for i in range(5):
            r.record(0.1 * i, hit=False)
        assert r.observations(0.5) == 5

    def test_ratio_ages_out(self):
        r = SlidingWindowRatio(1.0)
        r.record(0.0, hit=True)
        assert r.ratio(5.0) == 0.0

    def test_reset(self):
        r = SlidingWindowRatio(1.0)
        r.record(0.0, hit=True)
        r.reset()
        assert r.observations(0.0) == 0
