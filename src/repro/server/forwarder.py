"""Forwarding resolver.

Forwarders "do not conduct iterative resolution by themselves but simply
forward DNS queries to upstream resolvers" (Section 2.1).  They are
pervasive -- residential routers, enterprise gateways -- and they are the
entities most exposed to collateral damage: if an upstream polices a
forwarder because one of *its* clients misbehaves, every client behind
the forwarder loses service (the DoS vector DCC's signaling closes).

The forwarder keeps no cache and no rate limiter of its own: each client
request becomes an upstream query.  It fails over across its configured
upstreams (hosts typically list 2-3, cf. resolv.conf) and retries on
timeout -- the retry duplication is part of why redundant resolution
paths do not save the day in Figure 4b.  Upstream choice is blind: a
fixed per-attempt timer and plain rotation or priority order, with no
RTT estimate and no breaker, as in the home routers and gateways it
stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dnscore.edns import ClientAttribution, OptionCode
from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.node import Node


#: total upstream attempts per client request (first try + failovers)
MAX_ATTEMPTS = 3


@dataclass
class ForwarderConfig:
    upstreams: List[str] = field(default_factory=list)
    #: fixed per-attempt timer (seconds)
    query_timeout: float = 1.0
    #: rotate upstreams round-robin (False: strict priority order)
    rotate: bool = False


@dataclass
class ForwarderStats:
    requests_received: int = 0
    responses_sent: int = 0
    queries_forwarded: int = 0
    upstream_timeouts: int = 0
    failovers: int = 0
    servfail_responses: int = 0


@dataclass
class _PendingForward:
    client: str
    request: Message
    attempts: int = 0
    upstream_query_id: int = 0
    timer: object = None


class Forwarder(Node):
    """A DNS forwarder with upstream failover."""

    def __init__(self, address: str, config: ForwarderConfig) -> None:
        super().__init__(address)
        if not config.upstreams:
            raise ValueError("a forwarder needs at least one upstream resolver")
        self.config = config
        self.stats = ForwarderStats()
        self._rr_index = 0
        #: upstream query id -> pending client request
        self._pending: Dict[int, _PendingForward] = {}

        # Same DCC interception surface as the recursive resolver.
        self.egress_query_hook = None
        self.ingress_answer_hook = None
        self.egress_response_hook = None
        #: observation-only tap on queries actually leaving the host
        self.egress_tap = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def receive(self, message: Message, src: str) -> None:
        if message.is_response:
            self._receive_answer(message, src)
        else:
            self._receive_request(message, src)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _receive_request(self, request: Message, client: str) -> None:
        self.stats.requests_received += 1
        self._forward(_PendingForward(client=client, request=request))

    def _pick_upstream(self, pending: _PendingForward) -> str:
        """Round-robin across requests with ``rotate``, else strict
        priority order; each failover moves one upstream along."""
        upstreams = self.config.upstreams
        if self.config.rotate:
            choice = upstreams[(self._rr_index + pending.attempts) % len(upstreams)]
            if pending.attempts == 0:
                self._rr_index = (self._rr_index + 1) % len(upstreams)
            return choice
        return upstreams[pending.attempts % len(upstreams)]

    def _forward(self, pending: _PendingForward) -> None:
        if pending.attempts >= MAX_ATTEMPTS:
            self.stats.servfail_responses += 1
            self._respond(pending.client, pending.request.make_response(RCode.SERVFAIL))
            return
        upstream = self._pick_upstream(pending)
        if pending.attempts > 0:
            self.stats.failovers += 1
        pending.attempts += 1

        query = Message.query(
            pending.request.question.name,
            pending.request.question.rrtype,
            recursion_desired=True,
        )
        attribution = ClientAttribution(
            client=pending.client, port=0, request_id=pending.request.id
        )
        query.edns_options.append(attribution.encode())
        pending.upstream_query_id = query.id
        pending.timer = self.sim.schedule(self.config.query_timeout, self._on_timeout, pending)
        self._pending[query.id] = pending

        self.stats.queries_forwarded += 1
        if self.egress_query_hook is not None and self.egress_query_hook(query, upstream):
            return
        self.raw_send_query(query, upstream)

    def raw_send_query(self, query: Message, upstream: str) -> None:
        from repro.dnscore.edns import remove_options

        if self.egress_tap is not None:
            self.egress_tap(query, upstream)
        query.edns_options = remove_options(query.edns_options, OptionCode.CLIENT_ATTRIBUTION)
        self.send(upstream, query)

    def _on_timeout(self, pending: _PendingForward) -> None:
        if self._pending.pop(pending.upstream_query_id, None) is None:
            return
        pending.timer = None  # fired
        self.stats.upstream_timeouts += 1
        self._forward(pending)

    # ------------------------------------------------------------------
    # upstream side
    # ------------------------------------------------------------------
    def _receive_answer(self, answer: Message, src: str) -> None:
        if self.ingress_answer_hook is not None:
            hooked = self.ingress_answer_hook(answer, src)
            if hooked is None:
                return
            answer = hooked
        self.deliver_answer(answer, src)

    def deliver_answer(self, answer: Message, src: str) -> None:
        pending = self._pending.pop(answer.id, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None

        if answer.rcode in (RCode.SERVFAIL, RCode.REFUSED):
            # Failed upstream: try the next one (retries against the
            # remaining paths are what spread congestion in Fig. 4b).
            self._forward(pending)
            return

        response = pending.request.make_response(answer.rcode)
        response.answers.extend(answer.answers)
        response.authority.extend(answer.authority)
        # Propagate any DCC signals that arrived from upstream; the shim
        # (if installed) decides what finally reaches the client.
        response.edns_options.extend(answer.edns_options)
        self._respond(pending.client, response)

    def _respond(self, client: str, response: Message) -> None:
        if self.egress_response_hook is not None:
            response = self.egress_response_hook(response, client)
        self.stats.responses_sent += 1
        self.send(client, response)
