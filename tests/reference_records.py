"""The per-request ground truth as it was before it became columns.

``RequestRecord`` and ``StubClient`` are the object-list versions
verbatim: one slotted ``RequestRecord`` per logical request, kept in
``StubClient.records`` for the whole run.  Only
``tests/test_request_log.py`` imports this module;
``repro.workloads.clients`` must reproduce every row field of these,
bit for bit, and every ``success_ratio`` and ``effective_qps_series``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.dcc.signaling import AnomalySignal, CongestionSignal, PolicingSignal, extract_signals
from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.node import Node
from repro.workloads.clients import JITTER, ClientConfig, SignalLog
from repro.workloads.patterns import QueryPattern


class RequestRecord:
    """Ground truth about one logical client request.

    One per simulated request, so slotted: no per-instance ``__dict__``.
    """

    __slots__ = ("sent_at", "resolver", "attempts", "completed_at", "rcode", "timed_out")

    def __init__(
        self,
        sent_at: float,
        resolver: str,
        attempts: int = 1,
        completed_at: Optional[float] = None,
        rcode: Optional[RCode] = None,
        timed_out: bool = False,
    ) -> None:
        self.sent_at = sent_at
        self.resolver = resolver
        self.attempts = attempts
        self.completed_at = completed_at
        self.rcode = rcode
        self.timed_out = timed_out

    @property
    def success(self) -> bool:
        """The paper's success criterion: a NOERROR or NXDOMAIN answer."""
        return self.rcode is not None and self.rcode.is_success

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.sent_at



class StubClient(Node):
    """A request generator with outcome tracking."""

    def __init__(self, address: str, pattern: QueryPattern, config: ClientConfig) -> None:
        super().__init__(address)
        if not config.resolvers:
            raise ValueError("a client needs at least one resolver")
        if config.rate <= 0:
            raise ValueError(f"rate must be positive, got {config.rate}")
        self.pattern = pattern
        self.config = config
        self.records: List[RequestRecord] = []
        self.signals = SignalLog()
        #: request id -> (record, timer event, attempt index)
        self._pending: Dict[int, List] = {}
        self._started = False
        self._rate_penalty = 0.0  # dcc-aware backoff state
        self._penalty_since = 0.0
        self._resolver_offset = 0  # dcc-aware resolver switching
        #: the simulator's per-client streams, kept after first use (plain
        #: attributes: a cached_property writes through ``__dict__``, which
        #: un-inlines every attribute of the instance on CPython 3.11+)
        self._jitter_rng: Optional[random.Random] = None
        self._names_rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the generator; call after attaching to the network."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_at(max(self.config.start, self.sim.now), self._fire)

    def _current_rate(self, now: float) -> float:
        if self._rate_penalty <= 0:
            return self.config.rate
        elapsed = now - self._penalty_since
        recovered = elapsed / max(self.config.backoff_recovery, 1e-9)
        penalty = self._rate_penalty * max(0.0, 1.0 - recovered)
        return max(self.config.rate * 0.05, self.config.rate - penalty)

    def _fire(self) -> None:
        now = self.sim.now
        if now >= self.config.stop:
            return
        self._send_request(now)
        gap = 1.0 / self._current_rate(now)
        rng = self._jitter_rng
        if rng is None:
            rng = self._jitter_rng = self.sim.rng(f"client.{self.address}.jitter")
        gap *= 1.0 + rng.uniform(-JITTER, JITTER)
        self.sim.schedule(gap, self._fire)

    def _resolver_for(self, attempt: int) -> str:
        resolvers = self.config.resolvers
        return resolvers[(self._resolver_offset + attempt) % len(resolvers)]

    def _send_request(self, now: float) -> None:
        rng = self._names_rng
        if rng is None:
            rng = self._names_rng = self.sim.rng(f"client.{self.address}.names")
        question = self.pattern.next_question(rng)
        request = Message.query(question.name, question.rrtype)
        resolver = self._resolver_for(0)
        record = RequestRecord(sent_at=now, resolver=resolver)
        self.records.append(record)
        timer = self.sim.schedule(self.config.request_timeout, self._on_timeout, request.id)
        self._pending[request.id] = [record, timer, 0, request]
        self.send(resolver, request)

    def _on_timeout(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        record, _, attempt, request = entry
        if attempt + 1 < self.config.max_attempts:
            # Retry against the next resolver -- "retried requests are
            # indeed duplicated multiple times" (Section 7), which is
            # why path redundancy does not rescue Figure 4b.
            resolver = self._resolver_for(attempt + 1)
            record.attempts += 1
            record.resolver = resolver
            retry = Message.query(request.question.name, request.question.rrtype)
            timer = self.sim.schedule(self.config.request_timeout, self._on_timeout, retry.id)
            self._pending[retry.id] = [record, timer, attempt + 1, retry]
            self.send(resolver, retry)
            return
        record.timed_out = True

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def receive(self, message: Message, src: str) -> None:
        if not message.is_response:
            return
        entry = self._pending.pop(message.id, None)
        if entry is None:
            return  # late response after timeout
        record, timer, _, _ = entry
        timer.cancel()
        record.completed_at = self.sim.now
        record.rcode = message.rcode
        if self.config.dcc_aware:
            self._process_signals(message)

    def _process_signals(self, message: Message) -> None:
        for signal in extract_signals(message, strip=True):
            if isinstance(signal, PolicingSignal):
                self.signals.policing.append(signal)
                # Switch primary resolver: requests to the same resolver
                # will keep failing until the policy expires.
                self._resolver_offset = (self._resolver_offset + 1) % len(
                    self.config.resolvers
                )
            elif isinstance(signal, AnomalySignal):
                self.signals.anomaly.append(signal)
            elif isinstance(signal, CongestionSignal):
                self.signals.congestion.append(signal)
                # Reduce the request rate; it recovers over time.
                self._rate_penalty = self.config.rate * (1.0 - self.config.backoff_factor)
                self._penalty_since = self.sim.now

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def success_ratio(self, since: float = 0.0, until: float = float("inf")) -> float:
        """Fraction of requests sent in [since, until) that succeeded."""
        window = [r for r in self.records if since <= r.sent_at < until]
        if not window:
            return 0.0
        return sum(1 for r in window if r.success) / len(window)

    def effective_qps_series(self, duration: float, bucket: float = 1.0) -> List[float]:
        """Successful responses per second, bucketed by completion time
        (the Figure 8 'effective QPS' metric)."""
        buckets = [0.0] * int(duration / bucket + 1)
        for record in self.records:
            if record.success and record.completed_at is not None:
                index = int(record.completed_at / bucket)
                if 0 <= index < len(buckets):
                    buckets[index] += 1
        return [count / bucket for count in buckets]
