"""Resolution edge cases: cross-zone CNAMEs, loss, partial glue, misc."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.link import LinkSpec, Network
from repro.netsim.sim import Simulator
from repro.server import resolution
from repro.server.authoritative import AuthoritativeServer
from repro.server.health import HealthConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.zonegen import build_target_zone, build_tld_hierarchy

from tests.conftest import Collector, build_topology


def hierarchy_world(resolver_config=None, loss=0.0):
    sim = Simulator(seed=4)
    net = Network(sim)
    zones = build_tld_hierarchy({"victim.com.": "10.0.0.20", "site.org.": "10.0.0.22"})
    victim = build_target_zone("victim.com.", "ns1", "10.0.0.20", answer_ttl=60)
    site = build_target_zone("site.org.", "ns1", "10.0.0.22", answer_ttl=60)
    # Cross-zone CNAME: alias.victim.com -> www.site.org
    victim.add_cname("alias", "www.site.org.")
    servers = [
        AuthoritativeServer("10.0.0.1", zones=[zones["."]]),
        AuthoritativeServer("10.0.3.1", zones=[zones["com."]]),
        AuthoritativeServer("10.0.3.2", zones=[zones["org."]]),
        AuthoritativeServer("10.0.0.20", zones=[victim]),
        AuthoritativeServer("10.0.0.22", zones=[site]),
    ]
    resolver = RecursiveResolver("10.0.1.1", resolver_config or ResolverConfig())
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
    client = Collector()
    for node in servers + [resolver, client]:
        net.attach(node)
    if loss > 0:
        # Lossy only on the resolver<->server paths; the client's own
        # link stays clean (stubs here do not retry).
        for server in servers:
            net.set_link(resolver.address, server.address,
                         LinkSpec(latency=0.0005, loss=loss))
    return sim, net, servers, resolver, client


class TestCrossZoneCname:
    def test_chase_restarts_in_other_zone(self):
        sim, net, servers, resolver, client = hierarchy_world()
        query = client.query("10.0.1.1", "alias.victim.com.")
        sim.run(until=5.0)
        response = client.response_to(query)
        assert response.rcode == RCode.NOERROR
        types = [rrset.rrtype for rrset in response.answers]
        assert RRType.CNAME in types and RRType.A in types
        # The chase walked into org.: its TLD server was queried.
        org_server = next(s for s in servers if s.address == "10.0.3.2")
        assert org_server.stats.queries_received == 1

    def test_chain_target_nxdomain(self):
        sim, net, servers, resolver, client = hierarchy_world()
        victim_server = next(s for s in servers if s.address == "10.0.0.20")
        zone = victim_server.zone_for(Name.from_text("victim.com."))
        zone.add_cname("dangling", "gone.nx.site.org.")
        query = client.query("10.0.1.1", "dangling.victim.com.")
        sim.run(until=5.0)
        response = client.response_to(query)
        assert response.rcode == RCode.NXDOMAIN
        # The CNAME link is still part of the answer.
        assert any(r.rrtype == RRType.CNAME for r in response.answers)


class TestLossResilience:
    def test_retries_recover_from_moderate_loss(self):
        sim, net, servers, resolver, client = hierarchy_world(
            ResolverConfig(max_retries=3, health=HealthConfig(base_timeout=0.3)), loss=0.2
        )
        answered = 0
        for i in range(20):
            query = client.query("10.0.1.1", f"h{i}.wc.victim.com.")
            sim.run(until=sim.now + 3.0)
            response = client.response_to(query)
            if response is not None and response.rcode == RCode.NOERROR:
                answered += 1
        assert answered >= 17  # retries absorb 20% loss
        assert resolver.stats.query_retries > 0


class TestPartialGlue:
    def test_delegation_with_one_dead_one_live_server(self):
        """A two-NS delegation where one address is unreachable: SRTT
        failover lands on the live one."""
        topo = build_topology()
        zone = topo.root.zone_for(Name.from_text("."))
        # Add a second, dead nameserver for target-domain.
        zone.add_ns("target-domain.", "ns-dead.target-domain.")
        zone.add_a("ns-dead.target-domain.", "203.0.113.99")  # unrouted
        successes = 0
        for i in range(10):
            response = topo.resolve(f"pg{i}.wc.target-domain.", wait=5.0)
            if response is not None and response.rcode == RCode.NOERROR:
                successes += 1
        assert successes >= 9


class TestMiscBehaviours:
    def test_response_for_unknown_id_ignored(self, topology):
        from repro.dnscore.message import Message

        bogus = Message.query(Name.from_text("x.target-domain."), RRType.A).make_response()
        topology.resolver.receive(bogus, "10.0.0.2")
        assert topology.resolver.stats.mismatched_responses == 1

    def test_query_budget_bounds_work(self, monkeypatch):
        monkeypatch.setattr(resolution, "MAX_QUERIES_PER_REQUEST", 3)
        topo = build_topology(ff_fanout=3)
        response = topo.resolve("q-0.attacker-com.", wait=20.0)
        assert response.rcode == RCode.SERVFAIL
        # Budget capped the amplification: far fewer than fanout^2.
        assert topo.target_ans.stats.queries_received <= 3

    def test_txt_and_mx_lookups(self, topology):
        zone = topology.target_ans.zone_for(Name.from_text("target-domain."))
        from repro.dnscore.rdata import MXData

        zone.add_txt("info", "hello world")
        zone.add(Name.from_text("target-domain."), MXData(10, Name.from_text("mail.target-domain.")))
        txt = topology.resolve("info.target-domain.", RRType.TXT)
        assert txt.rcode == RCode.NOERROR
        mx = topology.resolve("target-domain.", RRType.MX)
        assert mx.rcode == RCode.NOERROR
