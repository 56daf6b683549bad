"""Multi-level delegation tests: root -> TLD -> SLD iterative descent."""

import pytest

from repro.dnscore.rdata import RCode, RRType
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.zonegen import build_target_zone

from tests.conftest import Collector
from tests.zone_fixtures import build_tld_hierarchy


def build_world(resolver_config=None):
    sim = Simulator(seed=2)
    net = Network(sim)
    zones = build_tld_hierarchy({
        "victim.com.": "10.0.0.20",
        "other.com.": "10.0.0.21",
        "site.org.": "10.0.0.22",
    })
    servers = {
        ".": AuthoritativeServer("10.0.0.1", zones=[zones["."]]),
        "com.": AuthoritativeServer("10.0.3.1", zones=[zones["com."]]),
        "org.": AuthoritativeServer("10.0.3.2", zones=[zones["org."]]),
        "victim.com.": AuthoritativeServer("10.0.0.20", zones=[
            build_target_zone("victim.com.", "ns1", "10.0.0.20", answer_ttl=60)]),
        "other.com.": AuthoritativeServer("10.0.0.21", zones=[
            build_target_zone("other.com.", "ns1", "10.0.0.21", answer_ttl=60)]),
        "site.org.": AuthoritativeServer("10.0.0.22", zones=[
            build_target_zone("site.org.", "ns1", "10.0.0.22", answer_ttl=60)]),
    }
    resolver = RecursiveResolver("10.0.1.1", resolver_config or ResolverConfig())
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
    client = Collector()
    for node in list(servers.values()) + [resolver, client]:
        net.attach(node)
    return sim, net, servers, resolver, client


def ask(sim, client, name, wait=5.0):
    query = client.query("10.0.1.1", name)
    sim.run(until=sim.now + wait)
    return client.response_to(query)


class TestHierarchyStructure:
    def test_zone_set(self):
        zones = build_tld_hierarchy({"victim.com.": "10.0.0.20", "site.org.": "10.0.0.22"})
        assert set(zones) == {".", "com.", "org."}

    def test_rejects_tld_level_domain(self):
        with pytest.raises(ValueError):
            build_tld_hierarchy({"com.": "10.0.0.2"})

    def test_root_delegates_tlds_with_glue(self):
        from repro.dnscore.zone import LookupStatus

        zones = build_tld_hierarchy({"victim.com.": "10.0.0.20"})
        result = zones["."].lookup("x.victim.com.", RRType.A)
        assert result.status == LookupStatus.DELEGATION
        assert str(result.cut) == "com."
        glue = [rec.rdata.address for rrset in result.additional for rec in rrset]
        assert glue == ["10.0.3.1"]

    def test_tld_delegates_sld(self):
        from repro.dnscore.zone import LookupStatus

        zones = build_tld_hierarchy({"victim.com.": "10.0.0.20"})
        result = zones["com."].lookup("x.victim.com.", RRType.A)
        assert result.status == LookupStatus.DELEGATION
        assert str(result.cut) == "victim.com."


class TestIterativeDescent:
    def test_three_hop_resolution(self):
        sim, net, servers, resolver, client = build_world()
        response = ask(sim, client, "www.victim.com.")
        assert response.rcode == RCode.NOERROR
        # One query each to root, com, and the SLD server.
        assert servers["."].stats.queries_received == 1
        assert servers["com."].stats.queries_received == 1
        assert servers["victim.com."].stats.queries_received == 1

    def test_tld_cut_shared_across_slds(self):
        sim, net, servers, resolver, client = build_world()
        ask(sim, client, "www.victim.com.")
        ask(sim, client, "www.other.com.")
        # The com. delegation is cached; the second lookup skips root.
        assert servers["."].stats.queries_received == 1
        assert servers["com."].stats.queries_received == 2

    def test_separate_tlds_independent(self):
        sim, net, servers, resolver, client = build_world()
        ask(sim, client, "www.victim.com.")
        ask(sim, client, "www.site.org.")
        assert servers["org."].stats.queries_received == 1
        assert servers["com."].stats.queries_received == 1

    def test_qmin_walks_each_cut(self):
        sim, net, servers, resolver, client = build_world(
            ResolverConfig(qname_minimization=True))
        response = ask(sim, client, "deep.label.wc.victim.com.")
        assert response.rcode == RCode.NOERROR
        # QMIN exposes one label per step: com@root, victim@com, then
        # per-label probes at the SLD server.
        assert servers["victim.com."].stats.queries_received >= 3

    def test_nxdomain_through_hierarchy(self):
        sim, net, servers, resolver, client = build_world()
        response = ask(sim, client, "missing.nx.victim.com.")
        assert response.rcode == RCode.NXDOMAIN

    def test_unknown_tld_fails_cleanly(self):
        sim, net, servers, resolver, client = build_world()
        response = ask(sim, client, "www.victim.net.", wait=10.0)
        assert response.rcode in (RCode.NXDOMAIN, RCode.SERVFAIL)
