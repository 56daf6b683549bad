"""Token bucket, windowed counter, and rate-limiter table tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.ratelimit import (
    RateLimitAction,
    RateLimitConfig,
    RateLimiter,
    prefix_key,
)
from repro.util.tokenbucket import TokenBucket, WindowedCounter


class TestTokenBucket:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TokenBucket(0)
        with pytest.raises(ValueError):
            TokenBucket(10, burst=0)

    def test_starts_full(self):
        bucket = TokenBucket(10, burst=5)
        assert bucket.tokens(0.0) == 5

    def test_consume_depletes(self):
        bucket = TokenBucket(10, burst=2)
        assert bucket.try_consume(0.0)
        assert bucket.try_consume(0.0)
        assert not bucket.try_consume(0.0)

    def test_refill_over_time(self):
        bucket = TokenBucket(10, burst=2)
        bucket.try_consume(0.0)
        bucket.try_consume(0.0)
        assert not bucket.try_consume(0.05)  # only 0.5 tokens back
        assert bucket.try_consume(0.1)  # 1 token back

    def test_burst_caps_refill(self):
        bucket = TokenBucket(10, burst=3)
        assert bucket.tokens(100.0) == 3

    def test_next_available_is_exact(self):
        bucket = TokenBucket(10, burst=1)
        bucket.try_consume(0.0)
        t = bucket.next_available(0.0)
        assert t == pytest.approx(0.1)
        assert bucket.try_consume(t)

    def test_next_available_strictly_future_when_congested(self):
        """Regression: float rounding made next_available == now, which
        spun MOPI-FQ's relocation loop forever."""
        bucket = TokenBucket(100.0, burst=100.0)
        now = 1.0
        while bucket.try_consume(now):
            pass
        t = bucket.next_available(now)
        assert t > now

    def test_sustained_rate(self):
        bucket = TokenBucket(50, burst=1)
        sent = 0
        t = 0.0
        while t < 10.0:
            if bucket.try_consume(t):
                sent += 1
            t += 0.001
        assert sent == pytest.approx(500, rel=0.05)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.5, 100.0),
        st.floats(1.0, 50.0),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
    )
    def test_never_exceeds_rate_plus_burst(self, rate, burst, times):
        """Over any horizon, consumption <= burst + rate * elapsed."""
        bucket = TokenBucket(rate, burst)
        consumed = 0
        for t in sorted(times):
            if bucket.try_consume(t):
                consumed += 1
        horizon = max(times)
        assert consumed <= burst + rate * horizon + 1


class TestWindowedCounter:
    def test_first_n_pass_then_drop(self):
        counter = WindowedCounter(rate=5, window=1.0)
        results = [counter.try_consume(0.1 * i) for i in range(8)]
        assert results == [True] * 5 + [False] * 3

    def test_window_reset(self):
        counter = WindowedCounter(rate=2, window=1.0)
        assert counter.try_consume(0.0)
        assert counter.try_consume(0.5)
        assert not counter.try_consume(0.9)
        assert counter.try_consume(1.0)  # new window

    def test_burst_insensitive_within_window(self):
        """All-at-once consumes exactly the same as spread-out -- the
        property that makes bursty attack traffic effective against
        uniformly-paced benign traffic (Figure 4)."""
        c1 = WindowedCounter(rate=10, window=1.0)
        burst = sum(1 for _ in range(30) if c1.try_consume(0.2))
        c2 = WindowedCounter(rate=10, window=1.0)
        spread = sum(1 for i in range(30) if c2.try_consume(i / 30.0))
        assert burst == spread == 10

    def test_next_available_is_window_boundary(self):
        # Quota is rate * window = 1 message per 2-second window.
        counter = WindowedCounter(rate=0.5, window=2.0)
        assert counter.try_consume(0.3)
        assert not counter.available(0.4)
        assert counter.next_available(0.4) == pytest.approx(2.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WindowedCounter(0)


class TestPrefixKey:
    def test_no_prefix(self):
        assert prefix_key("10.1.2.3", 0) == "10.1.2.3"

    def test_slash24(self):
        assert prefix_key("10.1.2.3", 24) == "10.1.2"

    def test_slash16(self):
        assert prefix_key("10.1.2.3", 16) == "10.1"

    def test_non_ipv4_passthrough(self):
        assert prefix_key("host-7", 24) == "host-7"


class TestRateLimiter:
    def test_per_key_isolation(self):
        rl = RateLimiter(RateLimitConfig(rate=2, burst=2))
        assert rl.allow("a", 0.0)
        assert rl.allow("a", 0.0)
        assert not rl.allow("a", 0.0)
        assert rl.allow("b", 0.0)  # different key unaffected

    def test_prefix_grouping(self):
        rl = RateLimiter(RateLimitConfig(rate=1, burst=1, prefix_bits=24))
        assert rl.allow("10.1.2.3", 0.0)
        assert not rl.allow("10.1.2.99", 0.0)  # same /24
        assert rl.allow("10.1.3.1", 0.0)  # different /24

    def test_window_mode(self):
        rl = RateLimiter(RateLimitConfig(rate=3, mode="window"))
        results = [rl.allow("c", 0.1 * i) for i in range(5)]
        assert results == [True, True, True, False, False]

    def test_would_allow_does_not_consume(self):
        rl = RateLimiter(RateLimitConfig(rate=1, burst=1))
        assert rl.would_allow("a", 0.0)
        assert rl.would_allow("a", 0.0)
        assert rl.allow("a", 0.0)
        assert not rl.would_allow("a", 0.0)

    def test_stats(self):
        rl = RateLimiter(RateLimitConfig(rate=1, burst=1))
        rl.allow("a", 0.0)
        rl.allow("a", 0.0)
        assert rl.total_allowed == 1
        assert rl.total_limited == 1
        assert rl.stats_for("a") == {"allowed": 1, "limited": 1}
        assert rl.stats_for("zzz") is None

    def test_purge_idle_entries(self):
        rl = RateLimiter(RateLimitConfig(rate=1, idle_timeout=10.0))
        rl.allow("a", 0.0)
        rl.allow("b", 8.0)
        assert rl.purge(15.0) == 1  # "a" idle > 10s
        assert rl.tracked_keys() == 1
