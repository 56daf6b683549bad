"""Regression tests for the resolver's retransmit path (transport PR).

Two seams in ``server/resolution.py``:

- a timeout retry must reuse the pending exchange's transport mode -- a
  TCP-fallback retry that silently downgraded to UDP would just get
  truncated again and loop;
- ``_send_query`` while an exchange is still armed (a failover issued
  from a response handler) must tear the old exchange down completely,
  or its timeout timer later fires against the new pending state.
"""

from repro.dnscore.message import Message
from repro.dnscore.rdata import RCode
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.zonegen import build_root_zone, build_target_zone

from tests.conftest import Collector

ROOT_ADDR = "10.0.0.1"
AUTH_ADDR = "10.0.0.2"
RESOLVER_ADDR = "10.0.1.1"


class FlakyTcpAuth(AuthoritativeServer):
    """Truncates every UDP query; swallows the first TCP query.

    The swallowed TCP query forces the resolver's retransmit timer to
    fire while the pending exchange is in TCP mode -- the exact state
    the via_tcp regression corrupted.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen_via_tcp = []
        self._swallowed = False

    def receive(self, message: Message, src: str) -> None:
        if message.is_response:
            return
        self.seen_via_tcp.append(message.via_tcp)
        if not message.via_tcp:
            response = self.answer(message).truncate()
            response.via_tcp = False
            self._respond(src, response)
            return
        if not self._swallowed:
            self._swallowed = True
            return
        super().receive(message, src)


def _topology(auth_cls=AuthoritativeServer, max_retries: int = 2):
    sim = Simulator(seed=1)
    net = Network(sim)
    root = AuthoritativeServer(ROOT_ADDR, zones=[build_root_zone({
        "target-domain.": ("ns1.target-domain.", AUTH_ADDR),
    })])
    auth = auth_cls(AUTH_ADDR, zones=[
        build_target_zone("target-domain.", "ns1", AUTH_ADDR, answer_ttl=60),
    ])
    resolver = RecursiveResolver(
        RESOLVER_ADDR, ResolverConfig(max_retries=max_retries)
    )
    resolver.add_root_hint("a.root-servers.net.", ROOT_ADDR)
    client = Collector()
    for node in (root, auth, resolver, client):
        net.attach(node)
    return sim, auth, resolver, client


class TestRetryPreservesTransportMode:
    def test_timeout_retry_stays_on_tcp_after_tc_fallback(self):
        sim, auth, resolver, client = _topology(auth_cls=FlakyTcpAuth)
        query = client.query(RESOLVER_ADDR, "www.target-domain.")
        sim.run(until=20.0)

        response = client.response_to(query)
        assert response is not None
        assert response.rcode == RCode.NOERROR
        assert response.answers
        # UDP attempt (truncated), TCP fallback (swallowed), TCP retry --
        # the retry arriving as UDP again is the regression
        assert auth.seen_via_tcp == [False, True, True]
        assert resolver.stats.tcp_fallbacks == 1
        assert resolver.stats.query_retries == 1


class TestFailoverTeardown:
    def test_send_query_supersedes_armed_exchange_without_double_fire(self):
        sim, auth, resolver, client = _topology()
        client.query(RESOLVER_ADDR, "www.target-domain.")
        while not resolver._query_registry:
            sim.run(max_events=1)

        task = next(iter(resolver._query_registry.values()))
        old_pending = task._pending
        assert old_pending is not None and old_pending.timer is not None
        old_timer = old_pending.timer

        # fail over to the same (qname, server) while the old exchange
        # is still armed, as a response handler would
        task._send_query(old_pending.qname, old_pending.qtype, old_pending.server)

        assert old_timer.cancelled
        assert task._pending is not old_pending
        assert old_pending.message_id not in resolver._query_registry

        sim.run(until=20.0)
        # the superseded exchange's timer never fired as a timeout
        assert resolver.stats.query_timeouts == 0
        assert client.responses and client.responses[0].rcode == RCode.NOERROR
