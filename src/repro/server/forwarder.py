"""Forwarding resolver.

Forwarders "do not conduct iterative resolution by themselves but simply
forward DNS queries to upstream resolvers" (Section 2.1).  They are
pervasive -- residential routers, enterprise gateways -- and they are the
entities most exposed to collateral damage: if an upstream polices a
forwarder because one of *its* clients misbehaves, every client behind
the forwarder loses service (the DoS vector DCC's signaling closes).

The forwarder keeps its own cache, fails over across its configured
upstreams (hosts typically list 2-3, cf. resolv.conf), and retries on
timeout -- the retry duplication is part of why redundant resolution
paths do not save the day in Figure 4b.  Upstream choice is blind: a
fixed per-attempt timer and plain rotation or priority order, with no
RTT estimate and no breaker, as in the home routers and gateways it
stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnscore.edns import ClientAttribution, OptionCode
from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.node import Node
from repro.server.cache import ResolverCache
from repro.server.ratelimit import RateLimitAction, RateLimitConfig, RateLimiter


#: total upstream attempts per client request (first try + failovers)
MAX_ATTEMPTS = 3
CACHE_SIZE = 50_000


@dataclass
class ForwarderConfig:
    upstreams: List[str] = field(default_factory=list)
    #: fixed per-attempt timer (seconds)
    query_timeout: float = 1.0
    ingress_limit: Optional[RateLimitConfig] = None
    #: rotate upstreams round-robin (False: strict priority order)
    rotate: bool = False
    #: oblivious-proxy mode (paper Section 6): attribute queries with a
    #: salted one-way token instead of the client's real address, so the
    #: local DCC instance can police fairly without leaking identities
    oblivious_salt: Optional[str] = None  # reprolint: disable=R11 -- paper Section 6 oblivious proxy, exercised by examples/oblivious_and_stale.py


@dataclass
class ForwarderStats:
    requests_received: int = 0
    responses_sent: int = 0
    cache_hit_responses: int = 0
    ingress_limited: int = 0
    queries_forwarded: int = 0
    upstream_timeouts: int = 0
    failovers: int = 0
    servfail_responses: int = 0


@dataclass
class _PendingForward:
    client: str
    request: Message
    arrived_at: float
    attempts: int = 0
    upstream: Optional[str] = None
    upstream_query_id: int = 0
    timer: object = None
    #: observability span covering the whole client request (0 = none)
    span: int = 0


class Forwarder(Node):
    """A caching DNS forwarder with upstream failover."""

    def __init__(self, address: str, config: ForwarderConfig) -> None:
        super().__init__(address)
        if not config.upstreams:
            raise ValueError("a forwarder needs at least one upstream resolver")
        self.config = config
        self.cache = ResolverCache(max_entries=CACHE_SIZE)
        self.stats = ForwarderStats()
        self.ingress_rl = RateLimiter(config.ingress_limit) if config.ingress_limit else None
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
        obs = self.obs
        if obs.enabled:
            obs.inc("forwarder.requests")
            obs.client_query(client, request.wire_length())
        if self.ingress_rl is not None and not self.ingress_rl.allow(client, self.now):
            self.stats.ingress_limited += 1
            if obs.enabled:
                obs.inc("forwarder.rate_limited")
                obs.instant(
                    "forwarder.rate_limited",
                    f"forwarder:{self.address}",
                    self.now,
                    client=client,
                )
            if self.ingress_rl.config.action == RateLimitAction.DROP:
                return
            rcode = (
                RCode.SERVFAIL
                if self.ingress_rl.config.action == RateLimitAction.SERVFAIL
                else RCode.REFUSED
            )
            self._respond(client, request.make_response(rcode))
            return

        entry = self.cache.get(request.question.name, request.question.rrtype, self.now)
        if entry is not None:
            response = request.make_response(entry.rcode)
            if entry.rrset is not None:
                response.answers.append(entry.rrset)
            self.stats.cache_hit_responses += 1
            if obs.enabled:
                obs.inc("forwarder.cache_hits")
            self._respond(client, response)
            return

        pending = _PendingForward(client=client, request=request, arrived_at=self.now)
        if obs.enabled:
            pending.span = obs.begin(
                "forward",
                f"forwarder:{self.address}",
                self.now,
                qname=str(request.question.name),
                client=client,
            )
        self._forward(pending)

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
            self.obs.end(pending.span, self.now, outcome="servfail")
            self._respond(pending.client, pending.request.make_response(RCode.SERVFAIL))
            return
        upstream = self._pick_upstream(pending)
        if pending.attempts > 0:
            self.stats.failovers += 1
        pending.attempts += 1
        pending.upstream = upstream

        query = Message.query(
            pending.request.question.name,
            pending.request.question.rrtype,
            recursion_desired=True,
        )
        client_identity = pending.client
        if self.config.oblivious_salt is not None:
            from repro.dnscore.edns import opaque_client_token

            client_identity = opaque_client_token(
                pending.client, self.config.oblivious_salt
            )
        attribution = ClientAttribution(
            client=client_identity, port=0, request_id=pending.request.id
        )
        query.edns_options.append(attribution.encode())
        pending.upstream_query_id = query.id
        if self.obs.enabled:
            self.obs.inc("forwarder.queries_forwarded")
            self.obs.instant(
                "forward.attempt",
                f"forwarder:{self.address}",
                self.now,
                upstream=upstream,
                attempt=pending.attempts,
            )
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
        if self.obs.enabled:
            self.obs.inc("forwarder.upstream_timeouts")
            self.obs.instant(
                "forward.timeout",
                f"forwarder:{self.address}",
                self.now,
                upstream=pending.upstream,
            )
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

        now = self.now
        for rrset in answer.answers:
            self.cache.put_rrset(rrset, now)
        if answer.rcode == RCode.NXDOMAIN:
            self.cache.put_negative(
                answer.question.name, answer.question.rrtype, RCode.NXDOMAIN, 5.0, now
            )

        if self.obs.enabled:
            self.obs.observe("forwarder.request_latency", self.now - pending.arrived_at)
            self.obs.end(pending.span, self.now, outcome=answer.rcode.name)

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
        if self.obs.enabled:
            self.obs.inc("forwarder.responses")
        self.send(client, response)
