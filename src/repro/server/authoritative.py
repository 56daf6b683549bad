"""Authoritative nameserver.

Hosts one or more zones and synthesises responses per the zone lookup
semantics in :mod:`repro.dnscore.zone`.  Ingress (response) rate limiting
caps what any client address -- including a recursive resolver -- can
elicit, which is precisely what gives the resolver->nameserver channel
its limited capacity (the "RA channel" of Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dnscore.message import _RESPONSE, _RESPONSE_RD_RA, Flags, Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode
from repro.dnscore.zone import LookupStatus, Zone
from repro.netsim.node import Node
from repro.server.ratelimit import RateLimitAction, RateLimitConfig, RateLimiter


#: ``flags | AA`` for the two flag words ``make_response`` sets, so that
#: no ``IntFlag`` arithmetic runs per authoritative answer
_WITH_AA = {_RESPONSE: _RESPONSE | Flags.AA, _RESPONSE_RD_RA: _RESPONSE_RD_RA | Flags.AA}


@dataclass
class AuthoritativeStats:
    queries_received: int = 0
    responses_sent: int = 0
    rate_limited: int = 0
    nxdomain_sent: int = 0
    referrals_sent: int = 0
    truncated: int = 0
    #: queries received per client address (attribution ground truth for
    #: the FF effective-QPS metric in Figure 8c)
    per_client_queries: Dict[str, int] = field(default_factory=dict)


class AuthoritativeServer(Node):
    """A zone-hosting server with optional ingress response RL."""

    def __init__(
        self,
        address: str,
        zones: Optional[List[Zone]] = None,
        ingress_limit: Optional[RateLimitConfig] = None,
    ) -> None:
        super().__init__(address)
        self._zones: Dict[Name, Zone] = {}
        for zone in zones or ():
            self.add_zone(zone)
        self.ingress_rl = RateLimiter(ingress_limit) if ingress_limit else None
        #: datagram responses above this size are truncated (TC bit) and
        #: the client must retry over TCP; None disables truncation
        self.udp_payload_limit: Optional[int] = None
        self.stats = AuthoritativeStats()

    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def zone_for(self, qname: Name) -> Optional[Zone]:
        """Most specific hosted zone enclosing ``qname``."""
        best: Optional[Zone] = None
        for origin, zone in self._zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    # ------------------------------------------------------------------
    # crash / recovery lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Zones live on disk and reload on restart; only the in-memory
        rate-limiter table (per-client token buckets) is lost, so every
        client starts from a full bucket after recovery."""
        if self.ingress_rl is not None:
            self.ingress_rl = RateLimiter(self.ingress_rl.config)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def receive(self, message: Message, src: str) -> None:
        if message.is_response:
            return  # authoritative servers send no queries of their own
        self.stats.queries_received += 1
        self.stats.per_client_queries[src] = self.stats.per_client_queries.get(src, 0) + 1
        obs = self.obs
        serve_span = 0
        if obs.enabled:
            serve_span = obs.begin(
                "auth.serve",
                f"auth:{self.address}",
                self.now,
                parent=obs.query_span(message.id),
                qname=str(message.question.name),
                src=src,
            )

        if self.ingress_rl is not None and not self.ingress_rl.allow(src, self.now):
            self.stats.rate_limited += 1
            if obs.enabled:
                obs.end(serve_span, self.now, outcome="rate_limited")
            action = self.ingress_rl.config.action
            if action == RateLimitAction.DROP:
                return
            rcode = RCode.SERVFAIL if action == RateLimitAction.SERVFAIL else RCode.REFUSED
            self._respond(src, message.make_response(rcode))
            return

        response = self.answer(message)
        if (
            self.udp_payload_limit is not None
            and not message.via_tcp
            and response.wire_length() > self.udp_payload_limit
        ):
            response = response.truncate()
            self.stats.truncated += 1
        response.via_tcp = message.via_tcp
        if obs.enabled:
            obs.observe_size("auth.response_bytes", response.wire_length())
            obs.end(serve_span, self.now, outcome=response.rcode.name)
        self._respond(src, response)

    def _respond(self, dst: str, response: Message) -> None:
        self.stats.responses_sent += 1
        if response.rcode == RCode.NXDOMAIN:
            self.stats.nxdomain_sent += 1
        self.send(dst, response)

    # ------------------------------------------------------------------
    # answer synthesis
    # ------------------------------------------------------------------
    def answer(self, query: Message) -> Message:
        """Build the authoritative response for ``query``."""
        zone = self.zone_for(query.question.name)
        if zone is None:
            return query.make_response(RCode.REFUSED)

        result = zone.lookup(query.question.name, query.question.rrtype)
        response = query.make_response()
        if result.status in (LookupStatus.ANSWER, LookupStatus.CNAME):
            response.flags = _WITH_AA[response.flags]
            response.answers.extend(result.answers)
        elif result.status == LookupStatus.DELEGATION:
            self.stats.referrals_sent += 1
            response.authority.extend(result.authority)
            response.additional.extend(result.additional)
        elif result.status == LookupStatus.NODATA:
            response.flags = _WITH_AA[response.flags]
            response.authority.extend(result.authority)
        elif result.status == LookupStatus.NXDOMAIN:
            response.flags = _WITH_AA[response.flags]
            response.rcode = RCode.NXDOMAIN
            response.authority.extend(result.authority)
        else:  # NOTZONE despite zone_for: hosted zone mismatch
            response.rcode = RCode.REFUSED
        return response
