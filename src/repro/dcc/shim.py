"""The non-invasive DCC I/O shim (paper Figure 5).

``DccShim`` wraps a vanilla resolver (recursive or forwarder) without
touching its internals, exactly like the paper's prototype wraps BIND
via netfilter interception:

- **egress queries** are attributed to the responsible client (via the
  repurposed EDNS option), checked against pre-queue policies, and
  buffered in the MOPI-FQ scheduler; queries the scheduler refuses get
  an immediate synthesised SERVFAIL so the resolver does not waste a
  timeout (Section 3.2.1);
- a virtual-time **dequeue pump** plays the role of the prototype's
  dequeue thread, sending scheduled queries whenever their channel has
  capacity;
- **ingress answers** update the anomaly monitor and have DCC signals
  extracted (and acted upon) before the resolver sees them;
- **egress responses** to clients get anomaly / policing / congestion
  signals attached, preferring upstream-originated signals of the same
  type (Section 3.3.4).

The cache-hit fast path never reaches the shim: DCC only sees resolver
traffic for cache-missed requests, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dcc.monitor import AnomalyEvent, AnomalyKind, AnomalyMonitor, ClientVerdict, MonitorConfig
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.dcc.policing import (
    SIGNAL_TRIGGERED_TEMPLATE,
    PolicyEngine,
    PolicyKind,
    PolicyTemplate,
)
from repro.dcc.signaling import (
    AnomalySignal,
    CongestionSignal,
    PolicingSignal,
    attach_signal,
    extract_signals,
    signal_name,
)
from repro.dcc.state import DccStateTables, PerRequestState
from repro.dnscore.edns import ClientAttribution, OptionCode
from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.obs import NULL_OBS, Observability

#: attribution used for a resolver's own housekeeping queries (priming
#: etc.) that no client is responsible for
LOCAL_SOURCE = "__local__"
#: entity state idle timeout (paper Section 5: 10 seconds)
STATE_IDLE_TIMEOUT = 10.0


@dataclass
class DccConfig:
    """End-to-end configuration of a DCC instance."""

    scheduler: MopiFqConfig = field(default_factory=MopiFqConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    policy_templates: Optional[Dict[AnomalyKind, PolicyTemplate]] = None
    #: enable the in-band signaling mechanism (Figure 9 toggles this)
    signaling: bool = True
    #: start policing a suspect when a relayed countdown drops below this
    countdown_threshold: int = 5
    #: how much a relaying resolver lowers the countdown (F1 in Figure 6
    #: uses 5, F2 uses 0)
    countdown_decrement: int = 0  # reprolint: disable=R11 -- paper Section 3.3 countdown relay (Figure 6)
    #: alternative scheduler factory, for the Figure 7 ablations
    scheduler_factory: Optional[Callable[[], Any]] = None


@dataclass
class DccShimStats:
    queries_intercepted: int = 0
    queries_scheduled: int = 0
    queries_sent: int = 0
    queries_policed: int = 0
    queries_dropped_congestion: int = 0
    queries_evicted: int = 0
    servfails_synthesized: int = 0
    answers_seen: int = 0
    signals_received: int = 0
    signals_attached: int = 0
    signals_relayed: int = 0
    signal_triggered_policings: int = 0
    host_crashes: int = 0


class DccShim:
    """Wraps one resolver/forwarder node with the full DCC control loop.

    ``resolver`` may be a :class:`~repro.server.resolver.RecursiveResolver`
    or a :class:`~repro.server.forwarder.Forwarder` -- anything exposing
    the hook surface (``egress_query_hook``, ``ingress_answer_hook``,
    ``egress_response_hook``), ``raw_send_query`` and ``deliver_answer``.
    """

    def __init__(self, resolver, config: Optional[DccConfig] = None) -> None:
        self.resolver = resolver
        self.config = config or DccConfig()
        self.scheduler = self._make_scheduler()
        self.monitor = AnomalyMonitor(self.config.monitor)
        self.engine = PolicyEngine(
            templates=self.config.policy_templates,
            on_expire=self.monitor.clear_conviction,
        )
        self.tables = DccStateTables()
        self.stats = DccShimStats()

        #: outgoing query id -> (client, client request id, server, send time)
        self._inflight: Dict[int, Tuple[str, int, str, float]] = {}
        #: operator-configured capacities (the config file: survives crashes)
        self._configured_capacities: Dict[str, Tuple[float, Optional[float]]] = {}
        self._pump_event = None
        self._pump_at: Optional[float] = None
        self._ticking = False
        #: observability facade + this shim's track names
        self.obs = NULL_OBS
        host = getattr(resolver, "address", "?")
        self._obs_track = f"dcc:{host}"
        self._obs_fq_track = f"mopifq:{host}"
        #: queued query id -> open "mopifq.wait" span handle
        self._obs_wait: Dict[int, int] = {}

        resolver.egress_query_hook = self._on_egress_query
        resolver.ingress_answer_hook = self._on_ingress_answer
        resolver.egress_response_hook = self._on_egress_response
        # Overload shedding consults DCC's verdicts: a saturated host
        # sheds suspected/convicted clients before benign ones.
        if hasattr(resolver, "suspicion_probe"):
            resolver.suspicion_probe = self.shed_priority
        # DCC runs on the resolver host: it dies and restarts with it.
        # (Hosts without the Node lifecycle surface simply never crash.)
        if hasattr(resolver, "crash_hooks"):
            resolver.crash_hooks.append(self._on_host_crash)
            resolver.recover_hooks.append(self._on_host_recover)

    def _make_scheduler(self):
        if self.config.scheduler_factory is not None:
            return self.config.scheduler_factory()
        return MopiFq(self.config.scheduler)

    # ------------------------------------------------------------------
    # configuration passthrough
    # ------------------------------------------------------------------
    def set_channel_capacity(self, destination: str, rate: float, burst: Optional[float] = None) -> None:
        """Pin a channel's capacity: min(upstream ingress RL, own egress
        RL), as the operator configures it."""
        self._configured_capacities[destination] = (rate, burst)
        self.scheduler.set_channel_capacity(destination, rate, burst)

    # ------------------------------------------------------------------
    # host crash / recovery (graceful-degradation semantics)
    # ------------------------------------------------------------------
    def _on_host_crash(self) -> None:
        """Everything in Table 1 is process memory and dies with the
        host: queued queries, in-flight attribution, monitor verdicts and
        alarm counts, active policies and per-request tables.  After a
        restart DCC must detect and convict an ongoing attacker all over
        again."""
        self.stats.host_crashes += 1
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None
            self._pump_at = None
        self._inflight.clear()
        if self.obs.enabled and self._obs_wait:
            for span in self._obs_wait.values():
                self.obs.end(span, self.resolver.sim.now, outcome="crashed")
            self._obs_wait.clear()
        if isinstance(self.scheduler, MopiFq):
            self.scheduler.unlink_queued()
        self.scheduler = self._make_scheduler()
        self.monitor = AnomalyMonitor(self.config.monitor)
        self.engine = PolicyEngine(
            templates=self.config.policy_templates,
            on_expire=self.monitor.clear_conviction,
        )
        self.tables = DccStateTables()
        if self.obs.enabled:
            # The rebuilt components must keep reporting to the same run.
            self._observe_components()

    def attach_obs(self, obs: Observability) -> None:
        """Report this shim and its components to ``obs``: their spans and
        instants, and their stats blocks as counters."""
        self.obs = obs
        obs.metrics.watch("dcc", self.stats)
        self._observe_components()

    def _observe_components(self) -> None:
        obs = self.obs
        self.scheduler.obs = obs
        self.monitor.obs = obs
        self.monitor.obs_track = self._obs_track
        self.engine.obs = obs
        self.engine.obs_track = self._obs_track
        if isinstance(self.scheduler, MopiFq):  # the baseline schedulers keep no stats
            obs.metrics.watch("mopifq", self.scheduler.stats)
        obs.metrics.watch("monitor", self.monitor.stats)
        obs.metrics.watch("police", self.engine.stats)

    def _on_host_recover(self) -> None:
        """Operator-configured channel capacities come back from the
        config file."""
        for destination, (rate, burst) in self._configured_capacities.items():
            self.scheduler.set_channel_capacity(destination, rate, burst)

    def shed_priority(self, client: str) -> int:
        """Suspicion rank for the host's overload controller: clients
        the monitor holds in suspicion (1) or conviction (2) are shed
        first when the front end saturates; normal clients rank 0."""
        verdict = self.monitor.verdict(client)
        if verdict == ClientVerdict.CONVICTED:
            return 2
        if verdict == ClientVerdict.SUSPICIOUS:
            return 1
        return 0

    def _ensure_ticking(self) -> None:
        if self._ticking:
            return
        self._ticking = True
        self.resolver.sim.schedule(self.config.monitor.window, self._window_tick)
        self.resolver.sim.schedule(STATE_IDLE_TIMEOUT, self._purge_tick)

    # ------------------------------------------------------------------
    # egress queries: policing + scheduling
    # ------------------------------------------------------------------
    def _attribution(self, query: Message) -> ClientAttribution:
        option = query.find_edns(OptionCode.CLIENT_ATTRIBUTION)
        if option is None:
            return ClientAttribution(client=LOCAL_SOURCE, port=0, request_id=0)
        return ClientAttribution.decode(option)

    def _on_egress_query(self, query: Message, server: str) -> bool:
        self._ensure_ticking()
        now = self.resolver.sim.now
        self.stats.queries_intercepted += 1
        attribution = self._attribution(query)
        client = attribution.client

        reqstate: Optional[PerRequestState] = None
        if client != LOCAL_SOURCE:
            opened = self.tables.created
            reqstate = self.tables.open_request(client, attribution.request_id, now)
            if self.tables.created != opened:
                # First query for this request: it entered resolution.
                self.monitor.record_request(client, now)
            reqstate.queries_attributed += 1
            self.monitor.record_query(client, now)
            # Per-request amplification detection: the moment one request
            # spawns more queries than the threshold, it is anomalous --
            # robust even when the client is a forwarder whose aggregate
            # traffic would dilute any ratio metric.
            if reqstate.queries_attributed == int(self.config.monitor.amplification_threshold) + 1:
                reqstate.anomaly = AnomalyKind.AMPLIFICATION
                self.monitor.record_anomalous_request(client, now)

            # Pre-queue policing (Section 3.2.3).
            if not self.engine.check(client, now):
                self.stats.queries_policed += 1
                reqstate.dropped_policing += 1
                if self.obs.enabled:
                    self.obs.instant(
                        "police.refuse", self._obs_track, now, client=client
                    )
                self._synthesize_servfail(query, server)
                return True

        # the request id rides in the payload: the attribution option is decoded once per query
        status, evicted = self.scheduler.enqueue(client, server, (query, server, attribution.request_id), now)
        if evicted is not None:
            self._handle_eviction(evicted, now)
        if status.ok:
            self.stats.queries_scheduled += 1
            if reqstate is not None:
                reqstate.queries_sent += 1
            if self.obs.enabled:
                span = self.obs.begin(
                    "mopifq.wait",
                    self._obs_fq_track,
                    now,
                    parent=self.obs.query_span(query.id),
                    client=client,
                    server=server,
                )
                if span:
                    self._obs_wait[query.id] = span
                self.obs.set_gauge(
                    "mopifq.depth", getattr(self.scheduler, "total_depth", 0)
                )
            self._pump(now)
        else:
            self.stats.queries_dropped_congestion += 1
            if reqstate is not None:
                reqstate.dropped_congestion += 1
                reqstate.allocated_rate = self._allocated_rate(server)
            if self.obs.enabled:
                self.obs.instant(
                    "mopifq.reject",
                    self._obs_fq_track,
                    now,
                    client=client,
                    server=server,
                    status=status.name,
                )
            self._synthesize_servfail(query, server)
        return True

    def _allocated_rate(self, server: str) -> float:
        bucket = self.scheduler.channel_bucket(server)
        # Baseline schedulers (ablations) do not track per-channel
        # source sets; fall back to "sole user" for the advisory rate.
        queued_sources = getattr(self.scheduler, "queued_sources", None)
        active = max(1, len(queued_sources(server))) if queued_sources else 1
        return bucket.rate / active

    def _handle_eviction(self, evicted, now: float) -> None:
        self.stats.queries_evicted += 1
        query, server, request_id = evicted.payload
        if self.obs.enabled:
            span = self._obs_wait.pop(query.id, 0)
            self.obs.end(span, now, outcome="evicted")
        client = evicted.source
        if client != LOCAL_SOURCE:
            state = self.tables.get_request(client, request_id)
            if state is not None:
                state.dropped_congestion += 1
                state.allocated_rate = self._allocated_rate(server)
        self._synthesize_servfail(query, server)

    def _synthesize_servfail(self, query: Message, server: str) -> None:
        """Fail the resolver's query immediately instead of letting it
        time out (Section 3.2.1)."""
        self.stats.servfails_synthesized += 1
        response = query.make_response(RCode.SERVFAIL)
        self.resolver.sim.call_soon(self.resolver.deliver_answer, response, server)

    # ------------------------------------------------------------------
    # the dequeue pump (the prototype's dequeue thread, event-driven)
    # ------------------------------------------------------------------
    def _pump(self, now: float) -> None:
        while True:
            item = self.scheduler.dequeue(now)
            if item is None:
                break
            query, server, request_id = item.payload
            if item.source != LOCAL_SOURCE:
                self._inflight[query.id] = (item.source, request_id, server, now)
            self.stats.queries_sent += 1
            if self.obs.enabled:
                span = self._obs_wait.pop(query.id, 0)
                self.obs.end(span, now, outcome="sent")
            self.resolver.raw_send_query(query, server)
        self._arm_pump(now)

    def _arm_pump(self, now: float) -> None:
        next_time = self.scheduler.next_ready_time(now)
        if next_time is None:
            return
        if self._pump_event is not None and self._pump_at is not None:
            if self._pump_at <= next_time:
                return  # an earlier (or equal) pump is already armed
            self._pump_event.cancel()
        self._pump_at = next_time
        self._pump_event = self.resolver.sim.schedule_at(next_time, self._pump_fire)

    def _pump_fire(self) -> None:
        self._pump_event = None
        self._pump_at = None
        self._pump(self.resolver.sim.now)

    # ------------------------------------------------------------------
    # ingress answers: monitoring + signal processing
    # ------------------------------------------------------------------
    def _on_ingress_answer(self, answer: Message, src: str) -> Optional[Message]:
        now = self.resolver.sim.now
        self.stats.answers_seen += 1
        info = self._inflight.pop(answer.id, None)
        client: Optional[str] = None
        request_id = 0
        if info is not None:
            client, request_id, _, _ = info
            self.monitor.record_answer(client, answer.rcode, now)

        signals = extract_signals(answer, strip=True)
        if signals:
            self.stats.signals_received += len(signals)
            for signal in signals:
                if self.obs.enabled:
                    self.obs.instant(
                        "signal.rx",
                        self._obs_track,
                        now,
                        kind=signal_name(signal),
                        src=src,
                    )
                self._process_upstream_signal(signal, client, request_id, now)
        return answer

    def _process_upstream_signal(
        self, signal, client: Optional[str], request_id: int, now: float
    ) -> None:
        if not self.config.signaling or client is None or client == LOCAL_SOURCE:
            return
        if isinstance(signal, AnomalySignal):
            countdown = max(0, signal.countdown - self.config.countdown_decrement)
            if signal.countdown <= self.config.countdown_threshold:
                # Imminent policing upstream: control the culprit now,
                # before the whole resolver gets policed (Section 3.3.1).
                self.engine.apply(client, SIGNAL_TRIGGERED_TEMPLATE, now, reason=signal.reason)
                self.stats.signal_triggered_policings += 1
            else:
                self._queue_relay(client, request_id, signal.with_countdown(countdown))
        elif isinstance(signal, PolicingSignal):
            # We are being policed upstream.  The signal arrives on every
            # failing request -- benign clients' included -- so it names
            # no culprit; per Section 3.3.2 it is propagated to our own
            # clients and monitoring sensitivity is raised (we failed to
            # identify the culprit in time), nothing more.
            self.monitor.raise_sensitivity(now)
            self._queue_relay(client, request_id, signal)
        elif isinstance(signal, CongestionSignal):
            self._queue_relay(client, request_id, signal)

    def _queue_relay(self, client: str, request_id: int, signal) -> None:
        state = self.tables.get_request(client, request_id)
        if state is not None:
            state.relay_signals.append(signal)
            self.stats.signals_relayed += 1

    # ------------------------------------------------------------------
    # egress responses: signal attachment
    # ------------------------------------------------------------------
    def _on_egress_response(self, response: Message, client: str) -> Message:
        now = self.resolver.sim.now
        reqstate = self.tables.close_request(client, response.id)
        if reqstate is None or not self.config.signaling:
            return response

        # Upstream-originated signals first: they take precedence over
        # local ones of the same type (Section 3.3.4).
        for signal in reqstate.relay_signals:
            if attach_signal(response, signal, prefer_existing=True):
                self.stats.signals_attached += 1
                self._note_attach(f"relay_{signal_name(signal)}", client, now)

        if reqstate.dropped_policing > 0:
            policy = self.engine.policy_for(client, now)
            if policy is not None and attach_signal(
                response,
                PolicingSignal(policy.kind, policy.remaining(now), policy.reason),
            ):
                self.stats.signals_attached += 1
                self._note_attach("policing", client, now)

        # Anomaly signals go only on responses to *anomalous* requests
        # from a suspicious client (Section 3.3.1) -- never on a benign
        # sibling's response, or innocuous clients behind the same
        # forwarder would get policed downstream.
        if self.monitor.verdict(client) == ClientVerdict.SUSPICIOUS:
            kind = self.monitor.last_kind(client) or AnomalyKind.RATE
            request_is_anomalous = reqstate.anomaly is not None or (
                kind == AnomalyKind.NXDOMAIN and response.rcode == RCode.NXDOMAIN
            )
            if request_is_anomalous:
                if reqstate.anomaly is None:
                    reqstate.anomaly = kind
                signal_kind = reqstate.anomaly
                template = self.engine.templates.get(signal_kind)
                policy_kind = template.kind if template is not None else PolicyKind.RATE_LIMIT
                signal = AnomalySignal(
                    reason=signal_kind,
                    suspicion_period=self.config.monitor.suspicion_period,
                    policy=policy_kind,
                    countdown=self.monitor.countdown(client),
                )
                if attach_signal(response, signal):
                    self.stats.signals_attached += 1
                    self._note_attach("anomaly", client, now)

        if reqstate.dropped_congestion > 0:
            signal = CongestionSignal(
                dropped=reqstate.dropped_congestion,
                allocated_rate=reqstate.allocated_rate,
            )
            if attach_signal(response, signal):
                self.stats.signals_attached += 1
                self._note_attach("congestion", client, now)
        return response

    def _note_attach(self, kind: str, client: str, now: float) -> None:
        if self.obs.enabled:
            self.obs.instant(
                "signal.attach", self._obs_track, now, kind=kind, client=client
            )

    # ------------------------------------------------------------------
    # periodic work
    # ------------------------------------------------------------------
    def _window_tick(self) -> None:
        now = self.resolver.sim.now
        if getattr(self.resolver, "up", True):  # a crashed host evaluates nothing
            for event in self.monitor.evaluate(now):
                self._act_on_event(event, now)
        self.resolver.sim.schedule(self.config.monitor.window, self._window_tick)

    def _act_on_event(self, event: AnomalyEvent, now: float) -> None:
        if event.convicted:
            if self.obs.enabled:
                self.obs.instant(
                    "dcc.convict",
                    self._obs_track,
                    now,
                    client=event.client,
                    kind=event.kind.name,
                )
            self.engine.convict(event.client, event.kind, now)

    def _purge_tick(self) -> None:
        now = self.resolver.sim.now
        timeout = STATE_IDLE_TIMEOUT
        if getattr(self.resolver, "up", True):
            self.monitor.purge(now, timeout)
            self.tables.purge(now)
            self.engine.sweep(now)
            # a query whose answer never came (lost, dropped upstream)
            self._inflight = {qid: info for qid, info in self._inflight.items() if now - info[3] <= timeout}
        self.resolver.sim.schedule(timeout, self._purge_tick)
