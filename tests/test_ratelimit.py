"""Token bucket, windowed counter, and rate-limiter table tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.server import ratelimit
from repro.server.ratelimit import RateLimitConfig, RateLimiter
from repro.util.tokenbucket import _EPSILON, TokenBucket, WindowedCounter


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


class _RefillBucket(TokenBucket):
    """``try_consume`` written over ``_refill``, as it was before the
    refill was inlined: the oracle for the inlined one."""

    __slots__ = ()

    def try_consume(self, now, amount=1.0):
        self._refill(now)
        if self._tokens >= amount - _EPSILON:
            self._tokens = max(0.0, self._tokens - amount)
            if sanitize.ENABLED:
                self._sanitize()
            return True
        return False


def _consume(bucket, now, amount):
    """Outcome of one ``try_consume`` and the exact state it leaves
    (``float.hex`` tells ``-0.0`` from ``0.0``)."""
    try:
        outcome = bucket.try_consume(now, amount)
    except sanitize.SimSanViolation as exc:
        outcome = str(exc)
    return outcome, bucket._tokens.hex(), bucket._stamp.hex()


def _assert_same_walk(rate, burst, steps):
    got, want = TokenBucket(rate, burst), _RefillBucket(rate, burst)
    for index, (now, amount, plant) in enumerate(steps):
        if plant is not None:
            got._tokens = want._tokens = plant
        assert _consume(got, now, amount) == _consume(want, now, amount), (index, now, amount, plant)


def _seeded_steps(seed, corrupt):
    rng = random.Random(seed)
    burst = 8.0
    amounts = (1.0, 1.0, 1.0, 0.0, 0.25, 1e-10, burst, burst + 0.5, 3 * burst)
    now, steps = 0.0, []
    for _ in range(20_000):
        roll = rng.random()
        if roll < 0.25:
            pass  # the same instant again
        elif roll < 0.35:
            now -= rng.random() * 0.2  # a clock that steps backwards
        elif roll < 0.40:
            now += 5.0  # long idle: refill clamps at burst
        else:
            now += rng.expovariate(40.0)
        plant = None
        if rng.random() < 0.01:
            plant = rng.choice((-0.0, 0.0, burst) + ((-5.0, 1e9, -1e-12, burst + 1e-12) if corrupt else ()))
        steps.append((now, rng.choice(amounts), plant))
    return burst, steps


class TestInlinedRefill:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_try_consume_matches_the_refill_based_one(self, seed):
        burst, steps = _seeded_steps(seed, corrupt=False)
        assert len({now for now, _, _ in steps}) < len(steps)  # repeated instants are in
        assert any(b[0] < a[0] for a, b in zip(steps, steps[1:]))  # and backward steps
        _assert_same_walk(40.0, burst, steps)

    def test_range_checks_fire_on_the_same_steps(self, simsan):
        """Under SimSan a bucket found negative or over-filled fails, at
        the same call and with the same message as before."""
        burst, steps = _seeded_steps(3, corrupt=True)
        _assert_same_walk(40.0, burst, steps)
        bucket = TokenBucket(10.0, burst=10.0)
        bucket._tokens = -5.0
        with pytest.raises(sanitize.SimSanViolation, match="negative"):
            bucket.try_consume(0.1)  # refills to -4: still negative
        bucket = TokenBucket(10.0, burst=10.0)
        bucket._tokens = 1e9
        with pytest.raises(sanitize.SimSanViolation, match="overfilled"):
            bucket.try_consume(0.0)  # same instant: no refill to clamp it

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 1e6),
        st.floats(0.01, 1e4),
        st.lists(
            st.tuples(
                st.floats(-10.0, 1e4),
                st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-9, 2e4]), st.floats(0.0, 2e4)),
                st.one_of(st.none(), st.sampled_from([-0.0, 0.0])),
            ),
            max_size=60,
        ),
    )
    def test_any_stream_of_times_and_amounts(self, rate, burst, steps):
        _assert_same_walk(rate, burst, steps)


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


class TestRateLimiter:
    def test_per_key_isolation(self):
        rl = RateLimiter(RateLimitConfig(rate=2, burst=2))
        assert rl.allow("a", 0.0)
        assert rl.allow("a", 0.0)
        assert not rl.allow("a", 0.0)
        assert rl.allow("b", 0.0)  # different key unaffected

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

    def test_purge_idle_entries(self, monkeypatch):
        monkeypatch.setattr(ratelimit, "IDLE_TIMEOUT", 10.0)
        rl = RateLimiter(RateLimitConfig(rate=1))
        rl.allow("a", 0.0)
        rl.allow("b", 8.0)
        assert rl.purge(15.0) == 1  # "a" idle > 10s
        assert rl.tracked_keys() == 1
