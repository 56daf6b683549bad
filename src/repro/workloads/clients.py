"""Traffic sources: stub clients and attackers.

A :class:`StubClient` sends requests at a configured rate over a
[start, stop) window, tracks every request's fate, and optionally
retries failed requests against alternate resolvers -- the behaviour
that spreads congestion across redundant resolution paths in the
paper's Figure 4b.

Attackers are just stub clients with a malicious query pattern and no
interest in the answers.  A ``dcc_aware`` client additionally processes
DCC signals on its responses (Section 3.3): it backs off on congestion
signals, switches resolvers on policing signals, and can surface anomaly
signals to its owner (e.g. to hunt a compromised local application).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.dcc.signaling import AnomalySignal, CongestionSignal, PolicingSignal, extract_signals
from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.node import Node
from repro.workloads.patterns import QueryPattern


#: relative jitter of inter-request gaps, against phase-locking across clients
JITTER = 0.1


@dataclass
class ClientConfig:
    """Behaviour of one traffic source."""

    rate: float  # requests/second
    start: float = 0.0
    stop: float = 60.0
    #: resolvers to use; retries rotate across them
    resolvers: List[str] = field(default_factory=list)
    request_timeout: float = 2.0
    #: total attempts per logical request (1 = no retry)
    max_attempts: int = 1
    #: process DCC signals on responses
    dcc_aware: bool = False  # reprolint: disable=R11 -- paper Section 3.3 DCC-aware clients
    #: multiplicative backoff applied to the rate on congestion signals
    #: (DCC-aware clients only); rate recovers linearly afterwards
    backoff_factor: float = 0.5  # reprolint: disable=R11 -- paper Section 3.3 client backoff
    backoff_recovery: float = 10.0  # reprolint: disable=R11 -- paper Section 3.3 backoff recovery (seconds)


#: ``RequestLog.completed_at`` and ``RequestLog.rcode`` of a request that has no answer
_NAN = float("nan")
NO_RCODE = -1
#: rcodes that count as a success: the paper's criterion (``RCode.is_success``)
SUCCESS_RCODES = tuple(int(code) for code in RCode if code.is_success)


class RequestLog:
    """Ground truth about every logical request of one client, as columns.

    One row per request, appended when it is sent and written in place
    as its fate arrives.  A row is 20 bytes of ``array`` storage: the
    ``sent_at`` and ``completed_at`` doubles (NaN: not answered), the
    ``rcode`` byte (:data:`NO_RCODE`: not answered), and one byte each for
    ``timed_out``, ``attempts`` and ``resolver`` (an index into
    ``resolvers``).  No object outlives its request; ``log[i]`` and
    iteration hand out :class:`RequestRecord` views.
    """

    __slots__ = ("resolvers", "sent_at", "completed_at", "rcode", "timed_out", "attempts", "resolver")

    def __init__(self, resolvers: Sequence[str]) -> None:
        self.resolvers = resolvers
        self.sent_at = array("d")
        self.completed_at = array("d")
        self.rcode = array("b")
        self.timed_out = array("B")
        self.attempts = array("B")
        self.resolver = array("B")

    def append(self, sent_at: float, resolver: int) -> int:
        """Add the row of a request sent now to ``resolvers[resolver]``."""
        row = len(self.sent_at)
        self.sent_at.append(sent_at)
        self.completed_at.append(_NAN)
        self.rcode.append(NO_RCODE)
        self.timed_out.append(0)
        self.attempts.append(1)
        self.resolver.append(resolver)
        return row

    def successes(self) -> int:
        """Rows answered with a success rcode."""
        return sum(map(self.rcode.count, SUCCESS_RCODES))

    def __len__(self) -> int:
        return len(self.sent_at)

    def __getitem__(self, row: int) -> "RequestRecord":
        return RequestRecord(self, range(len(self.sent_at))[row])

    def __iter__(self) -> Iterator["RequestRecord"]:
        for row in range(len(self.sent_at)):
            yield RequestRecord(self, row)


class RequestRecord:
    """Read-only view of one :class:`RequestLog` row."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: RequestLog, row: int) -> None:
        self._log = log
        self._row = row

    @property
    def sent_at(self) -> float:
        return self._log.sent_at[self._row]

    @property
    def resolver(self) -> str:
        log = self._log
        return log.resolvers[log.resolver[self._row]]

    @property
    def attempts(self) -> int:
        return self._log.attempts[self._row]

    @property
    def completed_at(self) -> Optional[float]:
        completed = self._log.completed_at[self._row]
        return None if completed != completed else completed

    @property
    def rcode(self) -> Optional[RCode]:
        code = self._log.rcode[self._row]
        return None if code == NO_RCODE else RCode(code)

    @property
    def timed_out(self) -> bool:
        return bool(self._log.timed_out[self._row])

    @property
    def success(self) -> bool:
        """The paper's success criterion: a NOERROR or NXDOMAIN answer."""
        return self._log.rcode[self._row] in SUCCESS_RCODES

    @property
    def latency(self) -> Optional[float]:
        completed = self.completed_at
        return None if completed is None else completed - self.sent_at


@dataclass
class SignalLog:
    anomaly: List[AnomalySignal] = field(default_factory=list)
    policing: List[PolicingSignal] = field(default_factory=list)
    congestion: List[CongestionSignal] = field(default_factory=list)


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
        self.records = RequestLog(config.resolvers)
        self.signals = SignalLog()
        #: request id -> [records row, timer event, attempt index, request]
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

    def _resolver_index(self, attempt: int) -> int:
        """Index into ``config.resolvers`` of the given attempt's resolver."""
        return (self._resolver_offset + attempt) % len(self.config.resolvers)

    def _send_request(self, now: float) -> None:
        rng = self._names_rng
        if rng is None:
            rng = self._names_rng = self.sim.rng(f"client.{self.address}.names")
        question = self.pattern.next_question(rng)
        request = Message.query(question.name, question.rrtype)
        resolver = self._resolver_index(0)
        row = self.records.append(now, resolver)
        timer = self.sim.schedule(self.config.request_timeout, self._on_timeout, request.id)
        self._pending[request.id] = [row, timer, 0, request]
        self.send(self.config.resolvers[resolver], request)

    def _on_timeout(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        row, _, attempt, request = entry
        log = self.records
        if attempt + 1 < self.config.max_attempts:
            # Retry against the next resolver -- "retried requests are
            # indeed duplicated multiple times" (Section 7), which is
            # why path redundancy does not rescue Figure 4b.
            resolver = self._resolver_index(attempt + 1)
            log.attempts[row] += 1
            log.resolver[row] = resolver
            retry = Message.query(request.question.name, request.question.rrtype)
            timer = self.sim.schedule(self.config.request_timeout, self._on_timeout, retry.id)
            self._pending[retry.id] = [row, timer, attempt + 1, retry]
            self.send(self.config.resolvers[resolver], retry)
            return
        log.timed_out[row] = 1

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def receive(self, message: Message, src: str) -> None:
        if not message.is_response:
            return
        entry = self._pending.pop(message.id, None)
        if entry is None:
            return  # late response after timeout
        row, timer, _, _ = entry
        timer.cancel()
        log = self.records
        log.completed_at[row] = self.sim.now
        log.rcode[row] = message.rcode
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
        log = self.records
        sent = succeeded = 0
        for sent_at, rcode in zip(log.sent_at, log.rcode):
            if since <= sent_at < until:
                sent += 1
                if rcode in SUCCESS_RCODES:
                    succeeded += 1
        if not sent:
            return 0.0
        return succeeded / sent

    def effective_qps_series(self, duration: float, bucket: float = 1.0) -> List[float]:
        """Successful responses per second, bucketed by completion time
        (the Figure 8 'effective QPS' metric).  A success row always has
        its completion time: ``receive`` writes both."""
        buckets = [0.0] * int(duration / bucket + 1)
        log = self.records
        for completed_at, rcode in zip(log.completed_at, log.rcode):
            if rcode in SUCCESS_RCODES:
                index = int(completed_at / bucket)
                if 0 <= index < len(buckets):
                    buckets[index] += 1
        return [count / bucket for count in buckets]
