"""Forwarder tests: caching, failover, signal pass-through."""

import pytest

from repro.dnscore.rdata import RCode
from repro.server import forwarder as forwarder_module
from repro.server.forwarder import Forwarder, ForwarderConfig
from repro.server.ratelimit import RateLimitAction, RateLimitConfig

from tests.conftest import RESOLVER_ADDR, build_topology

FWD_ADDR = "10.0.2.1"


def build_forwarded(config: ForwarderConfig = None, **topo_kwargs):
    topo = build_topology(**topo_kwargs)
    forwarder = Forwarder(FWD_ADDR, config or ForwarderConfig(upstreams=[RESOLVER_ADDR]))
    topo.net.attach(forwarder)
    return topo, forwarder


def ask(topo, name, wait=5.0):
    query = topo.client.query(FWD_ADDR, name)
    topo.sim.run(until=topo.sim.now + wait)
    return topo.client.response_to(query)


class TestForwarding:
    def test_forwards_and_answers(self):
        topo, forwarder = build_forwarded()
        response = ask(topo, "x.wc.target-domain.")
        assert response is not None and response.rcode == RCode.NOERROR
        assert forwarder.stats.queries_forwarded == 1

    def test_caches_upstream_answers(self):
        topo, forwarder = build_forwarded()
        ask(topo, "www.target-domain.")
        ask(topo, "www.target-domain.")
        assert forwarder.stats.cache_hit_responses == 1
        assert forwarder.stats.queries_forwarded == 1

    def test_negative_answers_forwarded(self):
        topo, forwarder = build_forwarded()
        response = ask(topo, "gone.nx.target-domain.")
        assert response.rcode == RCode.NXDOMAIN

    def test_requires_upstreams(self):
        with pytest.raises(ValueError):
            Forwarder(FWD_ADDR, ForwarderConfig(upstreams=[]))


class TestFailover:
    @pytest.fixture(autouse=True)
    def two_attempts(self, monkeypatch):
        monkeypatch.setattr(forwarder_module, "MAX_ATTEMPTS", 2)

    def test_timeout_fails_over_to_next_upstream(self):
        config = ForwarderConfig(
            upstreams=["10.9.9.9", RESOLVER_ADDR],  # first is dead
            query_timeout=0.5,
        )
        topo, forwarder = build_forwarded(config)
        response = ask(topo, "y.wc.target-domain.")
        assert response.rcode == RCode.NOERROR
        assert forwarder.stats.upstream_timeouts == 1
        assert forwarder.stats.failovers == 1

    def test_all_upstreams_dead_servfails(self):
        config = ForwarderConfig(
            upstreams=["10.9.9.8", "10.9.9.9"], query_timeout=0.3
        )
        topo, forwarder = build_forwarded(config)
        response = ask(topo, "z.wc.target-domain.")
        assert response.rcode == RCode.SERVFAIL
        assert forwarder.stats.servfail_responses == 1

    def test_upstream_servfail_triggers_failover(self):
        """A SERVFAIL answer makes the forwarder retry elsewhere --
        exactly the duplication that spreads congestion in Fig. 4b."""
        topo = build_topology()
        topo.net.detach("10.0.0.2")  # resolver will SERVFAIL eventually
        forwarder = Forwarder(FWD_ADDR, ForwarderConfig(
            upstreams=[RESOLVER_ADDR, RESOLVER_ADDR], query_timeout=8.0
        ))
        topo.net.attach(forwarder)
        query = topo.client.query(FWD_ADDR, "f.wc.target-domain.")
        topo.sim.run(until=30.0)
        assert forwarder.stats.queries_forwarded == 2

    def test_rotation_spreads_requests(self):
        topo = build_topology()
        second = type(topo.resolver)("10.0.1.2", topo.resolver.config)
        second.add_root_hint("a.root-servers.net.", "10.0.0.1")
        topo.net.attach(second)
        forwarder = Forwarder(FWD_ADDR, ForwarderConfig(
            upstreams=[RESOLVER_ADDR, "10.0.1.2"], rotate=True
        ))
        topo.net.attach(forwarder)
        for i in range(6):
            topo.client.query(FWD_ADDR, f"rot{i}.wc.target-domain.")
        topo.sim.run(until=10.0)
        assert topo.resolver.stats.requests_received == 3
        assert second.stats.requests_received == 3


class TestIngressRL:
    def test_forwarder_ingress_limit(self):
        config = ForwarderConfig(
            upstreams=[RESOLVER_ADDR],
            ingress_limit=RateLimitConfig(rate=2, burst=2, action=RateLimitAction.REFUSED),
        )
        topo, forwarder = build_forwarded(config)
        queries = [topo.client.query(FWD_ADDR, f"i{i}.wc.target-domain.") for i in range(4)]
        topo.sim.run(until=5.0)
        rcodes = [topo.client.response_to(q).rcode for q in queries if topo.client.response_to(q)]
        assert rcodes.count(RCode.REFUSED) == 2
        assert forwarder.stats.ingress_limited == 2
