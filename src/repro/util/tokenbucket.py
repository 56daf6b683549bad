"""Token-bucket and fixed-window rate-limiting primitives.

These live in :mod:`repro.util` (not :mod:`repro.server`) because both
the server-side rate-limiter tables *and* DCC's per-channel capacity
control are built on them: "RL is an indispensable measure to mitigate
DoS attacks in general, whereas it also enables an attacker to congest
a rate-limited channel at a substantially lower cost than overloading
an entire server" (Section 2.3), and inside DCC a token bucket controls
each output channel's capacity (Section 3.2.1).  Keeping them below the
``server``/``dcc`` layers lets ``dcc`` use them without a layering
violation (reprolint R6: ``dcc`` must not import ``server``).

Everything is driven by virtual time passed in by the caller; no wall
clock is read.
"""

from __future__ import annotations

from typing import Optional

from repro import sanitize as simsan

#: Slack absorbing float rounding in refill arithmetic.  Without it, a
#: deficit of ~1e-16 tokens yields a "next available" time that rounds
#: back to *now*, and schedulers that re-poll at that time spin forever.
_EPSILON = 1e-9


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Buckets start full, which matches how RL implementations admit an
    initial burst after idle periods (and is what produces the
    fluctuation patterns the paper's measurements observe).
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self._tokens = self.burst
        self._stamp = 0.0

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
        if simsan.ENABLED:
            self._sanitize()

    def _sanitize(self) -> None:
        """SimSan: the token count must stay within [0, burst]."""
        if self._tokens < -_EPSILON:
            simsan.fail(f"token bucket went negative: {self._tokens!r} (rate={self.rate})")
        if self._tokens > self.burst + _EPSILON:
            simsan.fail(
                f"token bucket overfilled: {self._tokens!r} > burst {self.burst!r}"
            )

    def tokens(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def available(self, now: float, amount: float = 1.0) -> bool:
        return self.tokens(now) >= amount - _EPSILON

    def try_consume(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if present; False (and no change) if not."""
        # _refill, inline: this is the scheduler's per-dequeue call
        tokens = self._tokens
        if now > self._stamp:
            tokens += (now - self._stamp) * self.rate
            if not tokens < self.burst:
                tokens = self.burst
            self._tokens = tokens
            self._stamp = now
        if simsan.ENABLED:
            self._sanitize()
        if tokens >= amount - _EPSILON:
            tokens -= amount
            self._tokens = tokens if tokens > 0.0 else 0.0
            if simsan.ENABLED:
                self._sanitize()
            return True
        return False

    def next_available(self, now: float, amount: float = 1.0) -> float:
        """Earliest virtual time at which ``amount`` tokens will exist.

        MOPI-FQ uses this as the "predicted future time when the channel
        becomes available again" for relocating congested channels in its
        output sequence (Appendix B.1.2).  The result is guaranteed to be
        strictly in the future whenever consumption would fail now.
        """
        self._refill(now)
        if self._tokens >= amount - _EPSILON:
            return now
        return now + max((amount - self._tokens) / self.rate, _EPSILON)


class WindowedCounter:
    """Fixed-window counting limiter (BIND response-rate-limiting style).

    The first ``rate * window`` messages of each window pass; everything
    after drops until the next window starts.  Unlike a token bucket,
    this is insensitive to arrival burstiness *within* a window -- which
    is exactly why bursty amplification traffic starves uniformly-paced
    benign traffic behind the same key (the paper's Figure 4 collapse).
    """

    __slots__ = ("rate", "window", "_window_index", "_count")

    def __init__(self, rate: float, window: float = 1.0) -> None:
        if rate <= 0 or window <= 0:
            raise ValueError("rate and window must be positive")
        self.rate = rate
        self.window = window
        self._window_index = -1
        self._count = 0.0

    def _roll(self, now: float) -> None:
        index = int(now / self.window)
        if index != self._window_index:
            self._window_index = index
            self._count = 0.0

    def try_consume(self, now: float, amount: float = 1.0) -> bool:
        self._roll(now)
        if self._count + amount <= self.rate * self.window + _EPSILON:
            self._count += amount
            if simsan.ENABLED and self._count < -_EPSILON:
                simsan.fail(f"window counter went negative: {self._count!r}")
            return True
        return False

    def available(self, now: float, amount: float = 1.0) -> bool:
        self._roll(now)
        return self._count + amount <= self.rate * self.window + _EPSILON

    def next_available(self, now: float, amount: float = 1.0) -> float:
        if self.available(now, amount):
            return now
        return (self._window_index + 1) * self.window
