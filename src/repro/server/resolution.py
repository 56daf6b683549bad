"""The iterative resolution engine.

A :class:`ResolutionTask` drives one logical lookup (qname, qtype) to
completion against the authoritative hierarchy, using the resolver's
cache and egress transport.  It is deliberately faithful to the resolver
behaviours the paper's attack patterns exploit:

- **CNAME chasing** restarts resolution at each alias target, one link
  per upstream response (the "CQ" chain half);
- **QNAME minimisation** (RFC 9156) walks the target name label by
  label, one query per label below the deepest known zone cut (the
  "×QMIN" half -- together with long chains this is the compositional
  amplification of CAMP [22]);
- **NS address fan-out**: a glue-less referral makes the resolver
  resolve *all* of the delegation's nameserver names, each a recursive
  subtask (the "FF" fan-out×fan-out amplification; cf. NXNSAttack [7]);
- **retries** on timeout, then server failover, then SERVFAIL.

Every query a task (or any of its subtasks) emits carries the client
attribution of the original request, which is what DCC's fairness is
defined over (Section 3.2.1: "fairness is defined over the number of
queries attributed to a client, which neutralizes the amplification
effects of malicious requests").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Set, Tuple

from repro.dnscore.edns import ClientAttribution, EdnsOption
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import CNAMEData, RCode, RRType, SOAData
from repro.dnscore.rrset import RRSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.resolver import RecursiveResolver  # reprolint: disable=R6 -- type-only back edge; resolver drives resolution tasks

_task_ids = itertools.count(1)

# BIND-analogue budgets of one resolution.
#: record type used for minimised probes (RFC 9156 allows NS or A)
QMIN_PROBE_TYPE = RRType.A
MAX_SERVERS_PER_STEP = 3
MAX_CNAME_CHAIN = 17
#: address lookups launched per glue-less delegation (all of them,
#: like the BIND version the paper measures at MAF ~50)
MAX_NS_ADDRESS_FETCHES = 20
MAX_FANOUT_DEPTH = 6
#: glue-less NS address fan-outs allowed per resolution step (BIND's
#: max-fetches analogue; >1 lets re-expired glue multiply the work)
MAX_FANOUT_ROUNDS = 1
#: hard per-request query budget (BIND max-fetches analogue)
MAX_QUERIES_PER_REQUEST = 400


@dataclass
class ResolutionOutcome:
    """Terminal result of a resolution task."""

    rcode: RCode
    answers: List[RRSet] = field(default_factory=list)
    authority: List[RRSet] = field(default_factory=list)
    #: total upstream queries attributed to this task tree
    queries_sent: int = 0


class _PendingQuery:
    """One in-flight upstream query with its retry budget.

    Holds one of the resolver's per-server outstanding-query slots from
    first transmission until the final response/timeout (retries to the
    same server reuse the slot, as a real resolver's fetch context does).
    """

    __slots__ = (
        "qname",
        "qtype",
        "server",
        "message_id",
        "retries_left",
        "timer",
        "sent_at",
        "retransmitted",
        "via_tcp",
        "span",
    )

    def __init__(self, qname: Name, qtype: RRType, server: str, message_id: int, retries_left: int) -> None:
        self.qname = qname
        self.qtype = qtype
        self.server = server
        self.message_id = message_id
        self.retries_left = retries_left
        self.timer = None  # netsim Event
        self.sent_at = 0.0
        #: the query was sent more than once -- under Karn's rule the
        #: eventual RTT sample is ambiguous and must not feed the
        #: adaptive estimator
        self.retransmitted = False
        #: transport mode of this exchange; retransmits must reuse it (a
        #: TCP-fallback retry that silently downgraded to UDP would just
        #: get truncated again)
        self.via_tcp = False
        #: obs span covering this exchange (0 when observability is off)
        self.span = 0


class _TreeState:
    """What every task of one client request's tree shares.

    Its own object rather than fields of the root task: background
    NS-address subtasks outlive the root's ``_finish`` and still charge
    the budget, and a ``task.root`` reference would make every root task
    a cycle only the collector can free.
    """

    __slots__ = ("queries_budget", "queries_sent", "in_progress", "deadline", "attribution_option")

    def __init__(self, budget: int, deadline: Optional[float], attribution: ClientAttribution) -> None:
        self.queries_budget = budget
        self.queries_sent = 0
        #: (name labels, type) pairs in flight anywhere in this tree (loop guard)
        self.in_progress: Set[Tuple[Tuple[str, ...], RRType]] = set()
        #: absolute virtual-time budget for the whole tree (the client's
        #: patience, threaded in by overload admission)
        self.deadline = deadline
        #: the attribution every query of the tree carries, encoded once;
        #: frozen, so the queries can share it
        self.attribution_option: EdnsOption = attribution.encode()


class ResolutionTask:
    """Resolve (qname, qtype), reporting through ``on_done(outcome)``.

    Subtasks (NS-address lookups) share the root task's attribution and
    query budget (``_TreeState``); the budget is
    :data:`MAX_QUERIES_PER_REQUEST` (BIND's max-fetches analogue),
    generous by default so that the amplification behaviours the paper
    measures are reproduced.
    """

    def __init__(
        self,
        resolver: "RecursiveResolver",
        qname: Name,
        qtype: RRType,
        attribution: ClientAttribution,
        on_done: Callable[[ResolutionOutcome], None],
        depth: int = 0,
        tree: Optional[_TreeState] = None,
        deadline: Optional[float] = None,
        span_parent: int = 0,
    ) -> None:
        self.task_id = next(_task_ids)
        self.resolver = resolver
        self.qname = qname
        self.qtype = qtype
        self.attribution = attribution
        #: released by ``_finish``/``abandon``: for a subtask it is the
        #: parent's bound method, the child -> parent edge of a cycle
        self.on_done: Optional[Callable[[ResolutionOutcome], None]] = on_done
        self.depth = depth
        #: ``deadline`` is the root's; subtasks are handed the tree
        self._tree = tree if tree is not None else _TreeState(
            MAX_QUERIES_PER_REQUEST, deadline, attribution
        )
        self.finished = False
        self.span = 0
        if resolver.obs.enabled:
            self.span = resolver.obs.begin(
                "resolve",
                f"resolver:{resolver.address}",
                resolver.now,
                parent=span_parent,
                qname=str(qname),
                depth=depth,
            )

        self.current_name = qname
        self.cname_chain: List[RRSet] = []
        #: labels currently exposed to upstream servers (QNAME minimisation)
        self._min_labels: Optional[int] = None
        self._pending: Optional[_PendingQuery] = None
        self._tried_servers: Set[str] = set()
        self._subtasks: List["ResolutionTask"] = []
        self._awaiting_addresses = False
        self._fanout_rounds = 0
        self._tree.in_progress.add((qname.labels, qtype))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._advance()

    def _finish(self, outcome: ResolutionOutcome) -> None:
        if self.finished:
            return
        self.finished = True
        self._tree.in_progress.discard((self.qname.labels, self.qtype))
        if self._pending is not None:
            self._drop_pending("cancelled")
        outcome.queries_sent = self._tree.queries_sent
        if self.span:
            self.resolver.obs.end(self.span, self.resolver.now, rcode=outcome.rcode.name)
        on_done, self.on_done = self.on_done, None
        on_done(outcome)

    def _drop_pending(self, outcome: str, release_slot: bool = True) -> None:
        """Tear the armed exchange down completely.  Nothing may keep
        pointing at the timer: ``pending.timer`` <-> ``event.args`` is a
        cycle, so every site that cancels or fires it clears it."""
        pending = self._pending
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        self.resolver.unregister_query(pending.message_id)
        if release_slot:
            self.resolver.release_server_slot(pending.server)
        if pending.span:
            self.resolver.obs.end(pending.span, self.resolver.now, outcome=outcome)
        self._pending = None

    def _fail(self, rcode: RCode = RCode.SERVFAIL) -> None:
        self._finish(ResolutionOutcome(rcode=rcode))

    def _deadline_exceeded(self, now: float) -> bool:
        """Has the task tree outlived its client's patience?"""
        deadline = self._tree.deadline
        if deadline is not None and now >= deadline:
            self.resolver.stats.deadline_exhausted += 1
            return True
        return False

    def abandon(self) -> None:
        """Drop this task tree without reporting an outcome.

        Used when the resolver host crashes: in-flight resolution state
        is process memory and dies with it -- no SERVFAIL goes out, the
        client's own timer discovers the loss.  Per-server slot counts
        are not released individually; the crashing resolver clears the
        whole table.
        """
        if self.finished:
            return
        self.finished = True
        self.on_done = None
        self._tree.in_progress.discard((self.qname.labels, self.qtype))
        if self._pending is not None:
            self._drop_pending("abandoned", release_slot=False)
        if self.span:
            self.resolver.obs.end(self.span, self.resolver.now, outcome="abandoned")
        for subtask in self._subtasks:
            subtask.abandon()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Take the next resolution step for ``current_name``."""
        if self.finished:
            return
        cache = self.resolver.cache
        now = self.resolver.sim.now

        # 1. Cache fast path for the full current name.
        entry = cache.get(self.current_name, self.qtype, now)
        if entry is not None:
            if entry.is_negative:
                self._finish(ResolutionOutcome(rcode=entry.rcode, answers=list(self.cname_chain)))
            else:
                self._conclude_with_answer(entry.rrset)
            return
        cname_entry = cache.peek(self.current_name, RRType.CNAME, now)
        if cname_entry is not None and cname_entry.rrset is not None:
            self._follow_cname(cname_entry.rrset)
            return

        # 2. Locate the deepest known zone cut.
        cut = cache.deepest_known_cut(self.current_name, now)
        if cut is None or not (cut[0].labels or any(cache.addresses_for(ns, now) for ns in cut[1].ns_targets)):
            # The walk reached the root without an address: a full cache
            # evicted the hints' NS or glue, which reads never refresh.
            self.resolver.on_recover()
            cut = cache.deepest_known_cut(self.current_name, now)
        if cut is None:
            # No root hints -> nothing to iterate from.
            self._fail()
            return
        cut_name, ns_rrset = cut

        # 3. Find an address for one of the cut's nameservers.
        ns_names = cache.nameserver_names(ns_rrset)
        addressed: List[str] = []
        for ns_name in ns_names:
            addressed.extend(cache.addresses_for(ns_name, now))
        tried = self._tried_servers
        candidates = [addr for addr in addressed if addr not in tried] if tried else addressed
        if not candidates and addressed:
            # Every known server for this cut has been tried and failed:
            # give up rather than hammering dead servers forever.
            self._fail()
            return
        if not candidates:
            self._fetch_ns_addresses(ns_names)
            return

        # 4. Decide the query name (QNAME minimisation) and send.  A
        # server that declines (probe slot taken, fetch quota full) joins
        # the tried set and the next candidate of the same walk gets the
        # query: nothing in the cache changed in between.
        qname, qtype = self._next_query(cut_name)
        while True:
            # Hold-down / breaker filtering happens inside pick_server;
            # None means no untried server is left or every one is
            # currently gated off.
            server = self.resolver.pick_server(candidates)
            if server is None:
                self._fail()
                return
            if self._send_query(qname, qtype, server):
                return
            candidates = [addr for addr in addressed if addr not in tried]

    def _next_query(self, cut_name: Name) -> Tuple[Name, RRType]:
        """Choose the (name, type) to expose to the upstream server."""
        if not self.resolver.config.qname_minimization:
            return self.current_name, self.qtype
        total = len(self.current_name)
        cut_depth = len(cut_name)
        if self._min_labels is None or self._min_labels <= cut_depth:
            self._min_labels = cut_depth + 1
        exposed = min(self._min_labels, total)
        if exposed >= total:
            return self.current_name, self.qtype
        minimized = Name(self.current_name.labels[total - exposed :])
        return minimized, QMIN_PROBE_TYPE

    # ------------------------------------------------------------------
    # upstream I/O
    # ------------------------------------------------------------------
    def _send_query(self, qname: Name, qtype: RRType, server: str, via_tcp: bool = False) -> bool:
        """Send one upstream query, or fail the task; True either way.

        False means ``server`` declined (its HALF_OPEN probe slot is
        taken or its fetch quota is full) and joined the tried set with
        room left for another: the caller fails over.
        """
        if self._pending is not None:
            # Failing over while an exchange is still armed (e.g. a TC
            # fallback issued from a response handler) must first tear
            # down the old exchange completely, or its timeout timer
            # stays scheduled and fires against the *new* pending state.
            self._drop_pending("superseded")
        tree = self._tree
        now = self.resolver.sim.now
        if tree.queries_sent >= tree.queries_budget:
            self._fail()
            return True
        if self._deadline_exceeded(now):
            self._fail()
            return True
        if not self.resolver.claim_probe(server):
            # The server's HALF_OPEN probe slot went to another task
            # between selection and transmission: treat like a dead
            # server for this step.
            return self._mark_tried(server)
        if not self.resolver.acquire_server_slot(server):
            # Fetch quota exhausted: fail over like a SERVFAIL (BIND
            # answers SERVFAIL when the per-server quota spills).
            self.resolver.release_probe(server)
            return self._mark_tried(server)
        tree.queries_sent += 1
        query = Message.query(qname, qtype, recursion_desired=False)
        query.via_tcp = via_tcp
        query.edns_options.append(tree.attribution_option)
        pending = _PendingQuery(
            qname,
            qtype,
            server,
            query.id,
            retries_left=self.resolver.config.max_retries,
        )
        pending.via_tcp = via_tcp
        pending.sent_at = now
        obs = self.resolver.obs
        if obs.enabled:
            pending.span = obs.begin(
                "upstream",
                f"resolver:{self.resolver.address}",
                now,
                parent=self.span,
                server=server,
                qname=str(qname),
            )
            obs.note_query_span(query.id, pending.span)
            obs.inc("resolver.queries_sent")
        pending.timer = self.resolver.sim.schedule(
            self.resolver.query_timeout_for(server), self._on_timeout, pending
        )
        self._pending = pending
        self.resolver.register_query(query.id, self)
        self.resolver.transmit_query(query, server)
        return True

    def _mark_tried(self, server: str) -> bool:
        """Rule ``server`` out for this step; True when that used up the
        step's servers and failed the task."""
        self._tried_servers.add(server)
        if len(self._tried_servers) >= MAX_SERVERS_PER_STEP:
            self._fail()
            return True
        return False

    def _on_timeout(self, pending: _PendingQuery) -> None:
        if self.finished or self._pending is not pending:
            return
        pending.timer = None  # fired; the retry below arms a new one
        self.resolver.unregister_query(pending.message_id)
        self.resolver.stats.query_timeouts += 1
        tree = self._tree
        now = self.resolver.sim.now
        if (
            pending.retries_left > 0
            and tree.queries_sent < tree.queries_budget
            and not self._deadline_exceeded(now)
        ):
            # Retry against the same server with a fresh message ID,
            # backing the adaptive RTO off first (RFC 6298 5.5).
            self.resolver.note_retransmit_timeout(pending.server)
            tree.queries_sent += 1
            self.resolver.stats.query_retries += 1
            query = Message.query(pending.qname, pending.qtype, recursion_desired=False)
            query.via_tcp = pending.via_tcp
            query.edns_options.append(tree.attribution_option)
            pending.retries_left -= 1
            pending.message_id = query.id
            pending.retransmitted = True
            obs = self.resolver.obs
            if obs.enabled:
                obs.inc("resolver.upstream_retransmits")
                obs.instant(
                    "upstream.retransmit",
                    f"resolver:{self.resolver.address}",
                    now,
                    server=pending.server,
                )
                obs.note_query_span(query.id, pending.span)
            pending.timer = self.resolver.sim.schedule(
                self.resolver.query_timeout_for(pending.server), self._on_timeout, pending
            )
            self.resolver.register_query(query.id, self)
            self.resolver.transmit_query(query, pending.server)
            return
        # Exhausted retries: mark this server bad for the step and try
        # another; _advance() fails the task if nothing is left.
        self.resolver.release_server_slot(pending.server)
        self.resolver.note_server_timeout(pending.server)
        obs = self.resolver.obs
        if obs.enabled:
            obs.inc("resolver.upstream_timeouts")
            obs.end(pending.span, now, outcome="timeout")
            obs.forget_query_span(pending.message_id)
        self._pending = None
        if not self._mark_tried(pending.server):
            self._advance()

    def handle_response(self, response: Message, src: str) -> None:
        """Called by the resolver when an upstream response matches our
        pending query."""
        if self.finished:
            return
        pending = self._pending
        if (
            pending is None
            or pending.message_id != response.id
            or pending.server != src
            or response.question.name != pending.qname
        ):
            self.resolver.stats.mismatched_responses += 1
            return
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        self._pending = None
        self.resolver.unregister_query(response.id)
        self.resolver.release_server_slot(pending.server)
        now = self.resolver.sim.now
        self.resolver.note_server_rtt(
            pending.server,
            now - pending.sent_at,
            retransmitted=pending.retransmitted,
        )
        obs = self.resolver.obs
        if obs.enabled:
            obs.observe("resolver.upstream_rtt", now - pending.sent_at)
            obs.end(
                pending.span,
                now,
                outcome="answered",
                rcode=response.rcode.name,
            )
            obs.forget_query_span(response.id)
        self._process_response(response, pending, now)

    # ------------------------------------------------------------------
    # response processing
    # ------------------------------------------------------------------
    def _process_response(self, response: Message, pending: _PendingQuery, now: float) -> None:
        cache = self.resolver.cache

        if response.is_truncated and not response.via_tcp:
            # TC bit: the datagram answer did not fit; retry over a
            # reliable stream (RFC 7766 TCP fallback).
            self.resolver.stats.tcp_fallbacks += 1
            if not self._send_query(pending.qname, pending.qtype, pending.server, via_tcp=True):
                self._advance()
            return

        if response.rcode in (RCode.SERVFAIL, RCode.REFUSED, RCode.NOTIMP, RCode.FORMERR):
            self.resolver.stats.upstream_errors += 1
            if not self._mark_tried(pending.server):
                self._advance()
            return

        was_minimized = pending.qname != self.current_name

        if response.rcode == RCode.NXDOMAIN:
            ttl = _negative_ttl(response)
            cache.put_negative(pending.qname, pending.qtype, RCode.NXDOMAIN, ttl, now)
            if self.resolver.config.aggressive_nsec:
                self._ingest_denial_ranges(response, ttl, now)
            # With QNAME minimisation, NXDOMAIN on an ancestor label
            # terminates the whole lookup (RFC 8020: nothing exists
            # below a non-existent name).
            self._finish(
                ResolutionOutcome(
                    rcode=RCode.NXDOMAIN,
                    answers=list(self.cname_chain),
                    authority=list(response.authority),
                )
            )
            return

        if response.answers:
            for rrset in response.answers:
                cache.put_rrset(rrset, now)
            direct = _find_rrset(response.answers, pending.qname, pending.qtype)
            cname = _find_rrset(response.answers, pending.qname, RRType.CNAME)
            if was_minimized:
                # An answer for a minimised probe name just proves the
                # label exists; keep walking down.
                self._min_labels = (self._min_labels or 0) + 1
                self._advance()
                return
            if direct is not None:
                self._conclude_with_answer(direct)
                return
            if cname is not None and self.qtype != RRType.CNAME:
                self._follow_cname(cname)
                return
            # Answer section without our name/type: treat as NODATA.
            cache.put_negative(pending.qname, pending.qtype, RCode.NOERROR, _negative_ttl(response), now)
            self._finish(ResolutionOutcome(rcode=RCode.NOERROR, answers=list(self.cname_chain)))
            return

        if response.is_referral:
            self._ingest_referral(response, now)
            self._advance()
            return

        # NODATA.
        cache.put_negative(pending.qname, pending.qtype, RCode.NOERROR, _negative_ttl(response), now)
        if was_minimized:
            # The minimised name exists but has no records of the probe
            # type -- normal for empty non-terminals; expose one more
            # label and continue.
            self._min_labels = (self._min_labels or 0) + 1
            self._advance()
            return
        self._finish(
            ResolutionOutcome(
                rcode=RCode.NOERROR,
                answers=list(self.cname_chain),
                authority=list(response.authority),
            )
        )

    def _ingest_denial_ranges(self, response: Message, ttl: float, now: float) -> None:
        """Cache NSEC ranges from a signed zone's NXDOMAIN (RFC 8198)."""
        from repro.dnscore.rdata import NSECData

        for rrset in response.authority:
            if rrset.rrtype != RRType.NSEC:
                continue
            for record in rrset:
                assert isinstance(record.rdata, NSECData)
                self.resolver.cache.put_denial_range(
                    record.name, record.rdata.next_name, min(ttl, record.ttl), now
                )

    def _ingest_referral(self, response: Message, now: float) -> None:
        cache = self.resolver.cache
        for rrset in response.authority:
            if rrset.rrtype == RRType.NS:
                cache.put_rrset(rrset, now)
        for rrset in response.additional:
            if rrset.rrtype in (RRType.A, RRType.AAAA):
                cache.put_rrset(rrset, now)
        # New cut: previously tried servers belong to the parent zone.
        self._tried_servers.clear()

    def _follow_cname(self, cname_rrset: RRSet) -> None:
        self.cname_chain.append(cname_rrset)
        if len(self.cname_chain) > MAX_CNAME_CHAIN:
            self.resolver.stats.cname_chain_overflows += 1
            self._fail()
            return
        target = cname_rrset.records[0].rdata
        assert isinstance(target, CNAMEData)
        self.current_name = target.target
        self._min_labels = None
        self._tried_servers.clear()
        self._advance()

    def _conclude_with_answer(self, rrset: RRSet) -> None:
        answers = list(self.cname_chain)
        answers.append(rrset)
        self._finish(ResolutionOutcome(rcode=RCode.NOERROR, answers=answers))

    # ------------------------------------------------------------------
    # NS address fan-out (the FF amplification point)
    # ------------------------------------------------------------------
    def _fetch_ns_addresses(self, ns_names: Sequence[Name]) -> None:
        """Resolve addresses for a glue-less delegation.

        A real resolver (and BIND in the paper's testbed, MAF ~= 50)
        launches address lookups for *all* nameserver names of the
        delegation; we proceed as soon as the first one succeeds but the
        rest keep running -- their queries still load the upstream
        channels, which is exactly the amplification an FF attacker
        banks on.
        """
        if self._awaiting_addresses:
            # A previous fan-out for this step is still running and
            # nothing came of it: give up rather than loop.
            self._fail()
            return
        if self._fanout_rounds >= MAX_FANOUT_ROUNDS:
            # Re-fanning out after the fetched glue expired would let an
            # attacker multiply amplification unboundedly; real resolvers
            # bound fetches per delegation (BIND max-fetches).
            self._fail()
            return
        if self.depth >= MAX_FANOUT_DEPTH:
            self._fail()
            return
        self._fanout_rounds += 1

        targets = [
            name
            for name in ns_names[: MAX_NS_ADDRESS_FETCHES]
            if (name.labels, RRType.A) not in self._tree.in_progress
        ]
        if not targets:
            self._fail()
            return
        self._awaiting_addresses = True
        self._address_arrived = False
        self._fanout_remaining = len(targets)
        for ns_name in targets:
            subtask = ResolutionTask(
                self.resolver,
                ns_name,
                RRType.A,
                self.attribution,
                on_done=self._on_ns_address,
                depth=self.depth + 1,
                tree=self._tree,
                span_parent=self.span,
            )
            self._subtasks.append(subtask)
            self.resolver.stats.ns_fanout_subtasks += 1
            subtask.start()

    def _on_ns_address(self, outcome: ResolutionOutcome) -> None:
        if self.finished:
            return
        self._fanout_remaining -= 1
        got_address = outcome.rcode == RCode.NOERROR and any(
            rrset.rrtype in (RRType.A, RRType.AAAA) for rrset in outcome.answers
        )
        if got_address and not self._address_arrived:
            # First usable address: resume the main descent. Remaining
            # subtasks continue in the background.
            self._address_arrived = True
            self._awaiting_addresses = False
            self._advance()
            return
        if self._fanout_remaining == 0 and not self._address_arrived:
            self._awaiting_addresses = False
            self._fail()


def _find_rrset(rrsets: List[RRSet], name: Name, rrtype: RRType) -> Optional[RRSet]:
    for rrset in rrsets:
        if rrset.name == name and rrset.rrtype == rrtype:
            return rrset
    return None


def _negative_ttl(response: Message) -> float:
    """Negative TTL from the SOA minimum (RFC 2308); short default."""
    for rrset in response.authority:
        for record in rrset:
            if isinstance(record.rdata, SOAData):
                return float(min(record.ttl, record.rdata.minimum))
    return 5.0
