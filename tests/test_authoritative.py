"""Authoritative server tests: answer synthesis + ingress RL actions."""

from repro.dnscore.message import Flags, Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.ratelimit import RateLimitAction, RateLimitConfig
from repro.workloads.zonegen import build_target_zone

from tests.conftest import Collector


def make_server(ingress_limit=None):
    sim = Simulator(seed=1)
    net = Network(sim)
    zone = build_target_zone("target-domain.", "ns1", "10.0.0.2", answer_ttl=60)
    server = AuthoritativeServer("10.0.0.2", zones=[zone], ingress_limit=ingress_limit)
    client = Collector()
    net.attach(server)
    net.attach(client)
    return sim, server, client


class TestAnswers:
    def test_positive_answer_is_authoritative(self):
        sim, server, client = make_server()
        q = client.query("10.0.0.2", "www.target-domain.")
        sim.run()
        r = client.response_to(q)
        assert r.rcode == RCode.NOERROR
        assert r.flags & Flags.AA
        assert r.answers

    def test_wildcard_answer(self):
        sim, server, client = make_server()
        q = client.query("10.0.0.2", "random.wc.target-domain.")
        sim.run()
        r = client.response_to(q)
        assert r.rcode == RCode.NOERROR
        assert r.answers[0].name == Name.from_text("random.wc.target-domain.")

    def test_nxdomain_with_soa(self):
        sim, server, client = make_server()
        q = client.query("10.0.0.2", "nope.nx.target-domain.")
        sim.run()
        r = client.response_to(q)
        assert r.rcode == RCode.NXDOMAIN
        assert r.authority[0].rrtype == RRType.SOA
        assert server.stats.nxdomain_sent == 1

    def test_nodata(self):
        sim, server, client = make_server()
        q = client.query("10.0.0.2", "www.target-domain.", RRType.AAAA)
        sim.run()
        r = client.response_to(q)
        assert r.rcode == RCode.NOERROR
        assert not r.answers
        assert r.authority[0].rrtype == RRType.SOA

    def test_unhosted_zone_refused(self):
        sim, server, client = make_server()
        q = client.query("10.0.0.2", "www.elsewhere.org.")
        sim.run()
        assert client.response_to(q).rcode == RCode.REFUSED

    def test_responses_ignore_other_responses(self):
        sim, server, client = make_server()
        bogus = Message.query(Name.from_text("x.target-domain."), RRType.A).make_response()
        client.send("10.0.0.2", bogus)
        sim.run()
        assert server.stats.queries_received == 0


class TestIngressRL:
    def test_drop_action(self):
        limit = RateLimitConfig(rate=2, burst=2, action=RateLimitAction.DROP)
        sim, server, client = make_server(ingress_limit=limit)
        queries = [client.query("10.0.0.2", f"q{i}.wc.target-domain.") for i in range(5)]
        sim.run()
        answered = sum(1 for q in queries if client.response_to(q) is not None)
        assert answered == 2
        assert server.stats.rate_limited == 3

    def test_servfail_action(self):
        limit = RateLimitConfig(rate=1, burst=1, action=RateLimitAction.SERVFAIL)
        sim, server, client = make_server(ingress_limit=limit)
        queries = [client.query("10.0.0.2", f"q{i}.wc.target-domain.") for i in range(3)]
        sim.run()
        rcodes = [client.response_to(q).rcode for q in queries]
        assert rcodes.count(RCode.NOERROR) == 1
        assert rcodes.count(RCode.SERVFAIL) == 2

    def test_refused_action(self):
        limit = RateLimitConfig(rate=1, burst=1, action=RateLimitAction.REFUSED)
        sim, server, client = make_server(ingress_limit=limit)
        queries = [client.query("10.0.0.2", f"q{i}.wc.target-domain.") for i in range(2)]
        sim.run()
        assert client.response_to(queries[1]).rcode == RCode.REFUSED

    def test_per_client_accounting(self):
        sim, server, client = make_server()
        client.query("10.0.0.2", "a.wc.target-domain.")
        client.query("10.0.0.2", "b.wc.target-domain.")
        sim.run()
        assert server.stats.per_client_queries[client.address] == 2

    def test_zone_for_picks_most_specific(self):
        from repro.dnscore.zone import Zone

        parent = Zone("example.")
        parent.add_soa()
        child = Zone("sub.example.")
        child.add_soa()
        server = AuthoritativeServer("10.0.0.9", zones=[parent, child])
        assert server.zone_for(Name.from_text("x.sub.example.")) is child
        assert server.zone_for(Name.from_text("y.example.")) is parent
