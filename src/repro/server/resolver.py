"""The recursive resolver node.

Wraps the iterative :mod:`repro.server.resolution` engine with the
client-facing machinery of a production resolver: ingress rate limiting,
a cache fast path, a pending-request table, egress rate limiting, and
statistics.  Three interception hooks expose exactly the I/O surface the
paper's non-invasive DCC middlebox taps (Figure 5):

- ``egress_query_hook`` sees every outgoing query (DCC's pre-queue
  policing + MOPI-FQ scheduling sit here);
- ``ingress_answer_hook`` sees every incoming answer (anomaly monitoring
  and signal extraction);
- ``egress_response_hook`` sees every response to a client (signal
  attachment).

When no hooks are installed the resolver behaves exactly like the
"vanilla BIND" baseline in the evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnscore.edns import ClientAttribution, OptionCode, remove_options
from repro.dnscore.message import Message
from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import NSData, RCode, RRType
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.rdata import AData
from repro.netsim.node import Node
from repro.server.cache import ResolverCache
from repro.server.health import HealthConfig, HealthRegistry
from repro.server.overload import OverloadConfig, OverloadController, ShedPolicy
from repro.server.ratelimit import RateLimitAction, RateLimitConfig, RateLimiter
from repro.server.resolution import ResolutionOutcome, ResolutionTask  # reprolint: disable=R6 -- cycle is type-only in the reverse direction


#: hard wall on one request's total resolution time in seconds (the
#: BIND ``resolve-timeout`` analogue); 0 disables.  Without it, RTO backoff
#: compounding across a dead-server chase can keep a single request's
#: task tree alive long after every client gave up.
MAX_RESOLUTION_TIME = 10.0
#: outstanding (unanswered) queries allowed per upstream server, the
#: BIND fetches-per-server analogue.  Under adversarial congestion,
#: dropped queries hold their slots until timeout, exhausting the
#: quota and failing *everyone's* queries to that server -- a key
#: ingredient of the paper's vanilla-resolver collapse (Figure 8).
MAX_OUTSTANDING_PER_SERVER = 200
CACHE_SIZE = 200_000
#: exploration probability of upstream server selection, which
#: otherwise prefers the historically fastest server (BIND behaviour
#: -- concentrates load on one server of a redundant set, which is
#: why redundancy does not dilute adversarial congestion, Figure 4a/b)
SRTT_EXPLORE = 0.05
#: period of the state-purge sweep (seconds)
PURGE_INTERVAL = 10.0


@dataclass
class ResolverConfig:
    """Tunable behaviour of the recursive resolver."""

    #: follow RFC 9156 and expose one label at a time
    qname_minimization: bool = False
    max_retries: int = 1
    #: RFC 8767 serve-stale: when fresh resolution fails, answer from an
    #: expired cache entry retained up to this many seconds (0 = off).
    #: Softens adversarial congestion for popular names; the evaluation
    #: baselines keep it off, matching the paper's BIND configuration.
    serve_stale_window: float = 0.0
    #: RFC 8198 aggressive use of DNSSEC-validated denial: cache NSEC
    #: ranges from signed zones and synthesise NXDOMAIN locally for
    #: covered names.  Suppresses pseudo-random-subdomain floods against
    #: signed zones (Section 2.3) -- but adoption is low (<5% of .com),
    #: so the evaluation baselines keep it off.
    aggressive_nsec: bool = False
    ingress_limit: Optional[RateLimitConfig] = None
    egress_limit: Optional[RateLimitConfig] = None
    #: per-upstream query timer, hold-down and server selection.  The
    #: default legacy mode is the vanilla-BIND baseline: a fixed 0.8 s
    #: timeout, 0.7/0.3 SRTT EWMA, and a blind 2 s hold-down after five
    #: consecutive timeouts; ``HealthConfig(mode="adaptive")`` turns on
    #: the RFC 6298 RTO estimator and the three-state circuit breaker
    health: HealthConfig = field(default_factory=HealthConfig)
    #: front-end admission control (None = unbounded pending table,
    #: matching the paper's vanilla-BIND baseline)
    overload: Optional[OverloadConfig] = None


@dataclass
class ResolverStats:
    requests_received: int = 0
    responses_sent: int = 0
    cache_hit_responses: int = 0
    ingress_limited: int = 0
    egress_limited: int = 0
    queries_sent: int = 0
    query_timeouts: int = 0
    query_retries: int = 0
    upstream_errors: int = 0
    quota_rejections: int = 0
    server_backoffs: int = 0
    mismatched_responses: int = 0
    cname_chain_overflows: int = 0
    ns_fanout_subtasks: int = 0
    servfail_responses: int = 0
    stale_responses: int = 0
    aggressive_nsec_responses: int = 0
    tcp_fallbacks: int = 0
    # -- resilience layer ----------------------------------------------
    #: cache-missing requests refused by front-end admission control
    shed_requests: int = 0
    #: of those, requests from clients the DCC monitor held in suspicion
    shed_suspected: int = 0
    #: stale answers served pre-resolution (breakers open / saturated)
    stale_fastpath_responses: int = 0
    #: resolutions cut short by the per-request deadline budget
    deadline_exhausted: int = 0
    # -- health-registry sinks (see repro.server.health.HealthStats) --
    rtt_samples: int = 0
    karn_rejections: int = 0
    failure_events: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    probe_failures: int = 0
    queries_per_server: Dict[str, int] = field(default_factory=dict)


@dataclass
class _PendingRequest:
    client: str
    request: Message
    arrived_at: float
    task: Optional[ResolutionTask] = None
    #: obs span handles (0 when observability is off)
    span: int = 0
    client_span: int = 0


class RecursiveResolver(Node):
    """An iterative-resolution recursive resolver."""

    def __init__(self, address: str, config: Optional[ResolverConfig] = None) -> None:
        super().__init__(address)
        self.config = config or ResolverConfig()
        self.cache = ResolverCache(
            max_entries=CACHE_SIZE,
            stale_window=self.config.serve_stale_window,
        )
        self.stats = ResolverStats()
        self.ingress_rl = (
            RateLimiter(self.config.ingress_limit) if self.config.ingress_limit else None
        )
        self.egress_rl = (
            RateLimiter(self.config.egress_limit) if self.config.egress_limit else None
        )
        #: outgoing message id -> owning resolution task
        self._query_registry: Dict[int, ResolutionTask] = {}
        #: per-server outstanding query counts (fetch quota)
        self._outstanding: Dict[str, int] = {}
        #: per-upstream RTO estimation + circuit breakers (replaces the
        #: seed's _srtt/_timeout_streak/_backoff_until trio); counters
        #: land directly in ``self.stats``
        self.health = HealthRegistry(self.config.health, self._health_rng, stats=self.stats)
        #: front-end admission control (None = vanilla, unbounded)
        self.overload = (
            OverloadController(self.config.overload) if self.config.overload else None
        )
        #: installed by the DCC shim: client address -> suspicion rank
        #: (0 normal / 1 suspicious / 2 convicted) for priority shedding
        self.suspicion_probe: Optional[Callable[[str], int]] = None
        #: (client, request id, qname labels) -> pending client request
        self._pending_requests: Dict[Tuple[str, int, Tuple[str, ...]], _PendingRequest] = {}
        #: the "hints file": root hints survive crashes and re-prime the
        #: cache on restart
        self._root_hints: List[Tuple[str, str, int]] = []

        # DCC interception surface (None = vanilla behaviour).
        self.egress_query_hook: Optional[Callable[[Message, str], bool]] = None
        self.ingress_answer_hook: Optional[Callable[[Message, str], Optional[Message]]] = None
        self.egress_response_hook: Optional[Callable[[Message, str], Message]] = None
        #: observation-only tap on queries actually leaving the host
        #: (fires post-scheduling, pre-attribution-strip); used by the
        #: experiment harnesses for per-client wire accounting
        self.egress_tap: Optional[Callable[[Message, str], None]] = None

        self._purge_scheduled = False
        #: the simulator's ``resolver.<address>.srtt`` stream, kept after
        #: first use (same object, same draws)
        self._srtt_rng: Optional[random.Random] = None

    def _health_rng(self):
        """Dedicated seeded stream for breaker backoff jitter."""
        return self.sim.rng(f"resolver.{self.address}.health")

    # ------------------------------------------------------------------
    # priming
    # ------------------------------------------------------------------
    def add_root_hint(self, server_name: str, server_address: str, ttl: int = 10**9) -> None:
        """Install a root NS + glue pair with an effectively infinite TTL."""
        self._root_hints.append((server_name, server_address, ttl))
        self._install_root_hint(server_name, server_address, ttl)

    def _install_root_hint(self, server_name: str, server_address: str, ttl: int) -> None:
        ns_name = Name.from_text(server_name)
        ns_rrset = RRSet.of(ResourceRecord(ROOT, ttl, NSData(ns_name)))
        existing = self.cache.peek(ROOT, RRType.NS, 0.0)
        if existing is not None and existing.rrset is not None:
            for record in existing.rrset:
                ns_rrset.add(record)
        self.cache.put_rrset(ns_rrset, 0.0)
        glue = RRSet.of(ResourceRecord(ns_name, ttl, AData(server_address)))
        self.cache.put_rrset(glue, 0.0)

    # ------------------------------------------------------------------
    # crash / recovery lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A resolver crash loses everything held in process memory:
        every in-flight resolution (clients discover via their own
        timeouts -- no SERVFAIL is sent for abandoned requests), the
        fetch-quota table, all learned server quality (SRTT, timeout
        streaks, hold-downs), rate-limiter state, and the cache itself (an
        in-memory cache dies with the process)."""
        for pending in list(self._pending_requests.values()):
            if pending.task is not None:
                pending.task.abandon()
        for task in list(self._query_registry.values()):
            task.abandon()
        self._pending_requests.clear()
        self._query_registry.clear()
        self._outstanding.clear()
        self.health.clear()
        if self.overload is not None:
            self.overload.reset()
        if self.ingress_rl is not None:
            self.ingress_rl = RateLimiter(self.config.ingress_limit)
        if self.egress_rl is not None:
            self.egress_rl = RateLimiter(self.config.egress_limit)
        self.cache = ResolverCache(
            max_entries=CACHE_SIZE,
            stale_window=self.config.serve_stale_window,
        )

    def on_recover(self) -> None:
        """Restart: re-prime the root hints from the on-disk hints file
        (the only resolution state that survives a crash)."""
        for server_name, server_address, ttl in self._root_hints:
            self._install_root_hint(server_name, server_address, ttl)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def receive(self, message: Message, src: str) -> None:
        self._ensure_purge_loop()
        if message.is_response:
            self._receive_answer(message, src)
        else:
            self._receive_request(message, src)

    def _ensure_purge_loop(self) -> None:
        if self._purge_scheduled or self.sim is None:
            return
        self._purge_scheduled = True
        self.sim.schedule(PURGE_INTERVAL, self._purge_tick)

    def _purge_tick(self) -> None:
        if self.ingress_rl is not None:
            self.ingress_rl.purge(self.now)
        if self.egress_rl is not None:
            self.egress_rl.purge(self.now)
        self.cache.flush_expired(self.now)
        self.sim.schedule(PURGE_INTERVAL, self._purge_tick)

    # ------------------------------------------------------------------
    # client-facing side
    # ------------------------------------------------------------------
    def _receive_request(self, request: Message, client: str) -> None:
        self.stats.requests_received += 1
        now = self.sim.now
        obs = self.obs
        if obs.enabled:
            obs.inc("resolver.requests")
            obs.client_query(client, request.wire_length())

        if self.ingress_rl is not None and not self.ingress_rl.allow(client, now):
            self.stats.ingress_limited += 1
            if obs.enabled:
                obs.instant(
                    "resolver.rate_limited", f"resolver:{self.address}", now, client=client
                )
            action = self.ingress_rl.config.action
            if action == RateLimitAction.DROP:
                return
            rcode = RCode.SERVFAIL if action == RateLimitAction.SERVFAIL else RCode.REFUSED
            self._respond(client, request.make_response(rcode))
            return

        qname = request.question.name
        qtype = request.question.rrtype

        # Root of the per-query span tree: one "query" span on the
        # client's track, one "request" span on the resolver's.  All
        # downstream work (resolution tasks, upstream queries, MOPI-FQ
        # waits, authoritative serves) hangs off these two.
        client_span = 0
        request_span = 0
        if obs.enabled:
            client_span = obs.begin(
                "query", f"client:{client}", now, qname=str(qname), qtype=qtype.name
            )
            request_span = obs.begin(
                "request", f"resolver:{self.address}", now, parent=client_span
            )

        # Aggressive denial (RFC 8198): a cached NSEC range proves the
        # name does not exist; answer locally, starving NX floods.
        if self.config.aggressive_nsec and self.cache.covered_by_denial(qname, now):
            self.stats.aggressive_nsec_responses += 1
            if obs.enabled:
                obs.end(request_span, now, outcome="nsec_denial")
                obs.end(client_span, now, outcome="nsec_denial")
            self._respond(client, request.make_response(RCode.NXDOMAIN))
            return

        # Fast path: cache hit bypasses everything, including DCC.
        entry = self.cache.get(qname, qtype, now)
        if entry is not None:
            response = request.make_response(entry.rcode)
            if entry.rrset is not None:
                response.answers.append(entry.rrset)
            self.stats.cache_hit_responses += 1
            if obs.enabled:
                obs.inc("resolver.cache_hits")
                obs.end(request_span, now, outcome="cache_hit")
                obs.end(client_span, now, outcome="cache_hit")
            self._respond(client, response)
            return
        # (A cached CNAME still requires chasing the target -> full path.)
        key = (client, request.id, qname.labels)
        if key in self._pending_requests:
            if obs.enabled:
                obs.end(request_span, now, outcome="duplicate")
                obs.end(client_span, now, outcome="duplicate")
            return  # duplicate in-flight request from the same client

        deadline: Optional[float] = None
        if MAX_RESOLUTION_TIME > 0:
            deadline = now + MAX_RESOLUTION_TIME
        if self.overload is not None:
            pending_count = len(self._pending_requests)
            saturated = self.overload.pressure(pending_count)
            # Serve-stale fast path: when upstreams are broken (an open
            # breaker) or the front end is saturated, an expired cache
            # entry now beats a full resolution that will likely fail or
            # arrive after the client gave up (RFC 8767 applied
            # pre-resolution).
            if self.overload.config.serve_stale and (
                saturated or self.health.any_open(now)
            ):
                stale = self.cache.get_stale(qname, qtype, now)
                if stale is not None and stale.rrset is not None:
                    response = request.make_response(RCode.NOERROR)
                    response.answers.append(stale.rrset)
                    self.stats.stale_fastpath_responses += 1
                    if obs.enabled:
                        obs.end(request_span, now, outcome="stale_fastpath")
                        obs.end(client_span, now, outcome="stale_fastpath")
                    self._respond(client, response)
                    return
            priority = self.suspicion_probe(client) if self.suspicion_probe else 0
            if not self.overload.admit(pending_count, priority):
                self.stats.shed_requests += 1
                if priority > 0:
                    self.stats.shed_suspected += 1
                if obs.enabled:
                    obs.instant(
                        "overload.shed",
                        f"resolver:{self.address}",
                        now,
                        client=client,
                        priority=priority,
                    )
                    obs.end(request_span, now, outcome="shed")
                    obs.end(client_span, now, outcome="shed")
                if self.overload.config.shed_policy is ShedPolicy.SERVFAIL:
                    self.stats.servfail_responses += 1
                    self._respond(client, request.make_response(RCode.SERVFAIL))
                return
            overload_deadline = self.overload.deadline_for(now)
            if overload_deadline is not None:
                deadline = (
                    overload_deadline
                    if deadline is None
                    else min(deadline, overload_deadline)
                )

        pending = _PendingRequest(client=client, request=request, arrived_at=now)
        pending.span = request_span
        pending.client_span = client_span
        self._pending_requests[key] = pending

        attribution = ClientAttribution(client=client, port=0, request_id=request.id)
        task = ResolutionTask(
            self,
            qname,
            qtype,
            attribution,
            on_done=lambda outcome: self._complete_request(key, outcome),
            deadline=deadline,
            span_parent=request_span,
        )
        pending.task = task
        task.start()

    def _complete_request(self, key: Tuple[str, int, Tuple[str, ...]], outcome: ResolutionOutcome) -> None:
        pending = self._pending_requests.pop(key, None)
        if pending is None:
            return
        if self.obs.enabled:
            self.obs.observe("resolver.request_latency", self.now - pending.arrived_at)
            self.obs.end(pending.span, self.now, outcome=outcome.rcode.name)
            self.obs.end(pending.client_span, self.now, outcome=outcome.rcode.name)
        if outcome.rcode == RCode.SERVFAIL and self.config.serve_stale_window > 0:
            stale = self.cache.get_stale(
                pending.request.question.name, pending.request.question.rrtype, self.now
            )
            if stale is not None and stale.rrset is not None:
                response = pending.request.make_response(RCode.NOERROR)
                response.answers.append(stale.rrset)
                self.stats.stale_responses += 1
                self._respond(pending.client, response)
                return
        response = pending.request.make_response(outcome.rcode)
        response.answers.extend(outcome.answers)
        response.authority.extend(outcome.authority)
        if outcome.rcode == RCode.SERVFAIL:
            self.stats.servfail_responses += 1
        self._respond(pending.client, response)

    def _respond(self, client: str, response: Message) -> None:
        if self.egress_response_hook is not None:
            response = self.egress_response_hook(response, client)
        self.stats.responses_sent += 1
        if self.obs.enabled:
            self.obs.inc("resolver.responses")
            if response.rcode == RCode.NXDOMAIN:
                self.obs.client_nxdomain(client)
        self.send(client, response)

    def pending_request_count(self) -> int:
        return len(self._pending_requests)

    # ------------------------------------------------------------------
    # server-facing side
    # ------------------------------------------------------------------
    def register_query(self, message_id: int, task: ResolutionTask) -> None:
        self._query_registry[message_id] = task

    def unregister_query(self, message_id: int) -> None:
        self._query_registry.pop(message_id, None)

    def acquire_server_slot(self, server: str) -> bool:
        """Claim an outstanding-query slot towards ``server``.

        Returns False when the fetch quota is exhausted; the caller must
        then fail over or give up (BIND answers SERVFAIL in this case).
        """
        count = self._outstanding.get(server, 0)
        if count >= MAX_OUTSTANDING_PER_SERVER:
            self.stats.quota_rejections += 1
            return False
        self._outstanding[server] = count + 1
        return True

    def release_server_slot(self, server: str) -> None:
        count = self._outstanding.get(server, 0)
        if count <= 1:
            self._outstanding.pop(server, None)
        else:
            self._outstanding[server] = count - 1

    def pick_server(self, candidates: List[str]) -> Optional[str]:
        """Server selection among a delegation's addressed NS set.

        Availability filtering lives *here*, in one place: servers in
        hold-down or with an OPEN breaker (or whose HALF_OPEN probe slot
        is already taken) are excluded before SRTT selection, so callers
        no longer need their own ``server_available`` pass.  Returns
        None when every candidate is gated off.
        """
        if not candidates:
            return None
        rng = self._srtt_rng
        if rng is None:
            rng = self._srtt_rng = self.sim.rng(f"resolver.{self.address}.srtt")
        return self.health.select(candidates, self.sim.now, rng, SRTT_EXPLORE)

    def note_server_rtt(self, server: str, rtt: float, retransmitted: bool = False) -> None:
        """RTT sample from a successful exchange.

        Legacy mode applies the seed's 0.7/0.3 EWMA; adaptive mode runs
        the RFC 6298 estimator and -- per Karn's rule -- rejects samples
        from retransmitted exchanges.
        """
        self.health.on_success(server, rtt, self.sim.now, retransmitted=retransmitted)

    def note_retransmit_timeout(self, server: str) -> None:
        """One transmission timed out but the exchange will be retried:
        back the adaptive RTO off without charging the breaker."""
        self.health.on_transmission_timeout(server)

    def note_server_timeout(self, server: str) -> None:
        """Penalise a server whose exchange was abandoned (all retries
        timed out): SRTT penalty/RTO backoff plus one failure towards
        the breaker threshold."""
        if self.health.on_failure(server, self.now):
            self.stats.server_backoffs += 1

    def query_timeout_for(self, server: str) -> float:
        """Per-query timer for ``server``: the fixed configured timeout
        in legacy mode, the adaptive RTO otherwise."""
        return self.health.timeout_for(server)

    def claim_probe(self, server: str) -> bool:
        """Claim the server's single HALF_OPEN probe slot (always True
        for CLOSED breakers)."""
        return self.health.acquire_probe(server, self.sim.now)

    def release_probe(self, server: str) -> None:
        self.health.release_probe(server)

    def transmit_query(self, query: Message, server: str) -> None:
        """Egress point for every resolver-generated query.

        The DCC shim intercepts here; without it the query goes straight
        out, subject only to the resolver's own egress RL.
        """
        self.stats.queries_sent += 1
        self.stats.queries_per_server[server] = self.stats.queries_per_server.get(server, 0) + 1
        if self.egress_query_hook is not None and self.egress_query_hook(query, server):
            return
        if self.egress_rl is not None and not self.egress_rl.allow(server, self.sim.now):
            self.stats.egress_limited += 1
            return  # dropped on the floor; the task's timer will fire
        self.raw_send_query(query, server)

    def raw_send_query(self, query: Message, server: str) -> None:
        """Actually put a query on the wire (used by DCC after dequeue).

        Attribution options are internal plumbing between the resolver
        and its shim; strip them before the message leaves the host, as
        the paper's prototype does.
        """
        if self.egress_tap is not None:
            self.egress_tap(query, server)
        query.edns_options = remove_options(query.edns_options, OptionCode.CLIENT_ATTRIBUTION)
        self.send(server, query)

    def _receive_answer(self, answer: Message, src: str) -> None:
        if self.ingress_answer_hook is not None:
            hooked = self.ingress_answer_hook(answer, src)
            if hooked is None:
                return
            answer = hooked
        self.deliver_answer(answer, src)

    def deliver_answer(self, answer: Message, src: str) -> None:
        """Hand an upstream answer to its owning resolution task.

        Public so the DCC shim can inject synthesised SERVFAILs for
        queries it refuses to enqueue (Section 3.2.1: "instead of
        discarding the query silently, DCC immediately returns a
        synthesized SERVFAIL answer").
        """
        task = self._query_registry.get(answer.id)
        if task is None:
            self.stats.mismatched_responses += 1
            return
        task.handle_response(answer, src)
