"""Backend-neutral wire query engine: RTO, TC fallback, shedding.

The robustness stack the tentpole requires at the client edge, written
against the :class:`~repro.transport.base.Clock` protocol only -- the
same engine instance logic runs on the virtual simulator (where the
unit tests pin its behaviour deterministically) and on
:class:`~repro.transport.udp.AsyncioClock` over real sockets:

- per-query retransmission with RFC 6298 RTO + Karn's rule, reusing
  :class:`repro.server.health.HealthRegistry` verbatim (``adaptive``
  mode) -- no parallel estimator implementation;
- EDNS-1232/TC handling: a truncated UDP response triggers one retry
  with ``via_tcp=True``, and TCP mode is preserved across retransmits;
- graceful degradation: a bounded
  :class:`~repro.transport.base.InflightTable` sheds the oldest query
  when full, and every query ends in an explicit verdict
  (answered / timeout / shed) -- the no-silent-hangs liveness property.

:class:`EngineClient` wraps the engine in a
:class:`~repro.netsim.node.Node` so a workload can drive a resolver
through it on either fabric.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.node import Node
from repro.server.health import HealthConfig, HealthRegistry
from repro.transport.base import Clock, InflightTable, TimerHandle


class Verdict(enum.Enum):
    ANSWERED = "answered"
    TIMEOUT = "timeout"
    SHED = "shed"


#: periodic overdue-entry audit cadence; entries orphaned past their
#: deadline (e.g. by a peer crash racing a timer) are reclaimed and
#: verdicted as timeouts.  0 disables the audit.
AUDIT_INTERVAL = 1.0
#: slack past the deadline before the audit reclaims an entry (the
#: per-query timer normally finishes first; the audit is a backstop)
AUDIT_GRACE = 0.25


def _default_health() -> HealthConfig:
    return HealthConfig(mode="adaptive")


@dataclass
class EngineConfig:
    #: retransmissions after the first attempt
    retries: int = 2
    #: hard per-query deadline; every query gets a verdict by then
    deadline: float = 4.0
    #: bounded in-flight table capacity (oldest-first shedding)
    inflight_capacity: int = 256
    health: HealthConfig = field(default_factory=_default_health)


@dataclass
class EngineStats:
    issued: int = 0
    answered: int = 0
    timeouts: int = 0
    shed: int = 0
    retransmits: int = 0
    tc_fallbacks: int = 0
    unmatched: int = 0
    #: entries the periodic audit reclaimed past their deadline
    reclaimed_overdue: int = 0
    rcodes: Dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    """The terminal fate of one engine query."""

    verdict: Verdict
    qname: str
    rcode: str = ""
    response: Optional[Message] = None
    rtt: Optional[float] = None
    retransmits: int = 0
    used_tcp: bool = False


class _EngineQuery:
    __slots__ = (
        "qname", "qtype", "server", "message_id", "attempts_left", "deadline",
        "sent_at", "retransmitted", "retransmits", "via_tcp", "timer",
        "callback", "done",
    )

    def __init__(
        self,
        qname: Name,
        qtype: RRType,
        server: str,
        deadline: float,
        attempts_left: int,
        callback: Optional[Callable[[Outcome], None]],
    ) -> None:
        self.qname = qname
        self.qtype = qtype
        self.server = server
        self.message_id = 0
        self.attempts_left = attempts_left
        self.deadline = deadline
        self.sent_at = 0.0
        self.retransmitted = False
        self.retransmits = 0
        self.via_tcp = False
        self.timer: Optional[TimerHandle] = None
        self.callback = callback
        self.done = False


class QueryEngine:
    """Issue DNS queries with the full robustness stack (module docstring)."""

    def __init__(
        self,
        clock: Clock,
        transmit: Callable[[Message, str], None],
        config: Optional[EngineConfig] = None,
    ) -> None:
        self._clock = clock
        self._transmit = transmit
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()
        self.health = HealthRegistry(self.config.health, rng_factory=functools.partial(clock.rng, "engine.health"))
        self._inflight: InflightTable[_EngineQuery] = InflightTable(
            self.config.inflight_capacity
        )
        self._audit_timer: Optional[TimerHandle] = None

    # ------------------------------------------------------------------
    # issue path
    # ------------------------------------------------------------------
    def lookup(
        self,
        qname: Name,
        qtype: RRType,
        server: str,
        callback: Optional[Callable[[Outcome], None]] = None,
    ) -> int:
        """Start a query; its verdict arrives via ``callback``.

        Returns the initial message id (the in-flight key until the
        first retransmit rekeys it).
        """
        now = self._clock.now
        self.stats.issued += 1
        q = _EngineQuery(
            qname, qtype, server, now + self.config.deadline,
            self.config.retries, callback,
        )
        message = Message.query(qname, qtype, recursion_desired=True)
        q.message_id = message.id
        shed = self._inflight.insert(message.id, q.deadline, now, q)
        for entry in shed:
            self._finish(entry.payload, Verdict.SHED)
        self._arm_audit()
        self._send_attempt(q, message)
        return message.id

    def _arm_audit(self) -> None:
        if AUDIT_INTERVAL <= 0 or self._audit_timer is not None:
            return
        self._audit_timer = self._clock.schedule(AUDIT_INTERVAL, self._audit)

    def _audit(self) -> None:
        """Reclaim entries orphaned past their deadline (timer lost to a
        crash or a backend bug): every query still gets a verdict.  The
        timer re-arms only while work is outstanding, so an idle engine
        holds no live timers and the event loop can drain."""
        self._audit_timer = None
        for entry in self._inflight.pop_overdue(self._clock.now, AUDIT_GRACE):
            self.stats.reclaimed_overdue += 1
            self._finish(entry.payload, Verdict.TIMEOUT)
        if len(self._inflight):
            self._arm_audit()

    def _send_attempt(self, q: _EngineQuery, message: Message) -> None:
        if q.done:
            return
        now = self._clock.now
        if now >= q.deadline:
            self._finish(q, Verdict.TIMEOUT)
            return
        q.sent_at = now
        delay = max(0.001, min(self.health.timeout_for(q.server), q.deadline - now))
        self._transmit(message, q.server)
        q.timer = self._clock.schedule(delay, self._on_timeout, q)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _on_timeout(self, q: _EngineQuery) -> None:
        if q.done or q.message_id not in self._inflight:
            return
        now = self._clock.now
        self.health.on_transmission_timeout(q.server)
        q.retransmitted = True
        if q.attempts_left <= 0 or now >= q.deadline:
            self.health.on_failure(q.server, now)
            self._finish(q, Verdict.TIMEOUT)
            return
        q.attempts_left -= 1
        q.retransmits += 1
        self.stats.retransmits += 1
        # a fresh id per attempt keeps the answer<->attempt pairing
        # unambiguous (Karn's problem at the id level); TCP mode is
        # preserved so a fallback retry can never downgrade to UDP
        message = Message.query(q.qname, q.qtype, recursion_desired=True)
        message.via_tcp = q.via_tcp
        self._inflight.rekey(q.message_id, message.id)
        q.message_id = message.id
        self._send_attempt(q, message)

    # ------------------------------------------------------------------
    # response path
    # ------------------------------------------------------------------
    def deliver(self, response: Message, src: str) -> bool:
        """Match a response to its in-flight query; False if unmatched."""
        entry = self._inflight.get(response.id)
        if entry is None or entry.payload.server != src or entry.payload.done:
            self.stats.unmatched += 1
            return False
        q = entry.payload
        now = self._clock.now
        if response.is_truncated and not response.via_tcp and not q.via_tcp:
            # EDNS-1232 truncation: retry the same question over TCP
            self.stats.tc_fallbacks += 1
            self._cancel_timer(q)
            q.via_tcp = True
            q.retransmitted = True  # Karn: the eventual RTT sample is tainted
            message = Message.query(q.qname, q.qtype, recursion_desired=True)
            message.via_tcp = True
            self._inflight.rekey(q.message_id, message.id)
            q.message_id = message.id
            self._send_attempt(q, message)
            return True
        self.health.on_success(q.server, now - q.sent_at, now, q.retransmitted)
        self._finish(q, Verdict.ANSWERED, response, rtt=now - q.sent_at)
        return True

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _cancel_timer(self, q: _EngineQuery) -> None:
        if q.timer is not None:
            q.timer.cancel()
            q.timer = None

    def _finish(
        self,
        q: _EngineQuery,
        verdict: Verdict,
        response: Optional[Message] = None,
        rtt: Optional[float] = None,
    ) -> None:
        if q.done:
            return
        q.done = True
        self._cancel_timer(q)
        self._inflight.complete(q.message_id)
        rcode = ""
        if verdict is Verdict.ANSWERED:
            self.stats.answered += 1
            if response is not None:
                rcode = response.rcode.name
                self.stats.rcodes[rcode] = self.stats.rcodes.get(rcode, 0) + 1
        elif verdict is Verdict.TIMEOUT:
            self.stats.timeouts += 1
        else:
            self.stats.shed += 1
        if q.callback is not None:
            q.callback(Outcome(
                verdict, str(q.qname), rcode, response, rtt,
                q.retransmits, q.via_tcp,
            ))

    def liveness_violations(self, grace: float = 1.0) -> List[str]:
        """Queries past deadline + grace with no verdict -- must be empty."""
        return [
            f"{entry.payload.qname} (deadline {entry.deadline:.3f})"
            for entry in self._inflight.overdue(self._clock.now, grace)
        ]


class EngineClient(Node):
    """A workload source driving a resolver through a :class:`QueryEngine`.

    Sends exactly ``total`` queries at seeded inter-arrival gaps (count-
    based, so same-seed runs issue identical workloads on any backend),
    then idles; :attr:`finished` flips once every query has a verdict.

    Queries fire at *absolute nominal times* -- the cumulative sum of
    the seeded gap draws, scheduled via ``schedule_at`` against the
    client's start epoch -- rather than gap-relative, so wall-clock
    drift on a real backend cannot accumulate across a run.  Each
    verdict is recorded in :attr:`samples` against its nominal send
    time: a ``(nominal, verdict, rcode)`` triple that is a pure function
    of the seed on any backend, which is what lets the recovery-SLO
    auditor segment runs into windows byte-identically across reruns.
    """

    def __init__(
        self,
        address: str,
        resolver: str,
        make_name: Callable[[int], Name],
        rate: float,
        total: int,
        config: Optional[EngineConfig] = None,
        qtype: RRType = RRType.A,
    ) -> None:
        super().__init__(address)
        self._resolver = resolver
        self._make_name = make_name
        self._gap = 1.0 / rate
        self._total = total
        self._config = config
        self._qtype = qtype
        self._sent = 0
        self._completed = 0
        self._epoch = 0.0
        self._cursor = 0.0
        self.engine: Optional[QueryEngine] = None
        self.verdicts: Dict[str, int] = {}
        self.rcodes: Dict[str, int] = {}
        #: (nominal send time, verdict value, rcode) per completed query
        self.samples: List[Tuple[float, str, str]] = []

    def start(self) -> None:
        assert self.sim is not None, f"{self.address} is not attached"
        self.engine = QueryEngine(self.sim, self._transmit, self._config)
        self._epoch = self.sim.now
        self._cursor = 0.0
        self._schedule_next()

    def _next_gap(self) -> float:
        jitter = self.sim.rng(f"client.{self.address}.gaps").uniform(0.6, 1.4)
        return self._gap * jitter

    def _schedule_next(self) -> None:
        self._cursor += self._next_gap()
        self.sim.schedule_at(self._epoch + self._cursor, self._fire)

    def _fire(self) -> None:
        if not self.up or self._sent >= self._total:
            return
        nominal = self._cursor
        qname = self._make_name(self._sent)
        self._sent += 1
        assert self.engine is not None
        self.engine.lookup(
            qname, self._qtype, self._resolver,
            lambda outcome: self._on_outcome(outcome, nominal),
        )
        if self._sent < self._total:
            self._schedule_next()

    def _transmit(self, message: Message, server: str) -> None:
        self.send(server, message)

    def _on_outcome(self, outcome: Outcome, nominal: float = 0.0) -> None:
        self._completed += 1
        key = outcome.verdict.value
        self.verdicts[key] = self.verdicts.get(key, 0) + 1
        if outcome.rcode:
            self.rcodes[outcome.rcode] = self.rcodes.get(outcome.rcode, 0) + 1
        self.samples.append((nominal, key, outcome.rcode))

    def receive(self, message: Message, src: str) -> None:
        if message.is_response and self.engine is not None:
            self.engine.deliver(message, src)

    @property
    def sent(self) -> int:
        return self._sent

    @property
    def finished(self) -> bool:
        return self._sent >= self._total and self._completed >= self._sent
