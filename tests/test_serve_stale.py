"""RFC 8767 serve-stale resilience tests."""

from repro.dnscore.rdata import RCode
from repro.server import resolver as resolver_module
from repro.server.resolver import ResolverConfig

from tests.conftest import build_topology


class TestServeStale:
    def test_stale_answer_when_upstream_dead(self):
        topo = build_topology(
            ResolverConfig(serve_stale_window=30.0), answer_ttl=2
        )
        fresh = topo.resolve("www.target-domain.")
        assert fresh.rcode == RCode.NOERROR
        # Kill the authoritative server and let the TTL lapse.
        topo.net.detach("10.0.0.2")
        topo.sim.run(until=topo.sim.now + 3.0)
        stale = topo.resolve("www.target-domain.", wait=20.0)
        assert stale.rcode == RCode.NOERROR  # served stale
        assert stale.answers
        assert topo.resolver.stats.stale_responses == 1
        assert topo.resolver.cache.stale_hits == 1

    def test_no_stale_without_window(self):
        topo = build_topology(ResolverConfig(serve_stale_window=0.0), answer_ttl=2)
        topo.resolve("www.target-domain.")
        topo.net.detach("10.0.0.2")
        topo.sim.run(until=topo.sim.now + 3.0)
        response = topo.resolve("www.target-domain.", wait=20.0)
        assert response.rcode == RCode.SERVFAIL

    def test_stale_entry_expires_after_window(self):
        topo = build_topology(
            ResolverConfig(serve_stale_window=5.0), answer_ttl=2
        )
        topo.resolve("www.target-domain.")
        topo.net.detach("10.0.0.2")
        topo.sim.run(until=topo.sim.now + 10.0)  # past TTL + window
        response = topo.resolve("www.target-domain.", wait=20.0)
        assert response.rcode == RCode.SERVFAIL

    def test_never_serves_stale_negatives(self):
        topo = build_topology(
            ResolverConfig(serve_stale_window=30.0), answer_ttl=2, negative_ttl=2
        )
        topo.resolve("gone.nx.target-domain.")
        topo.net.detach("10.0.0.2")
        topo.sim.run(until=topo.sim.now + 3.0)
        response = topo.resolve("gone.nx.target-domain.", wait=20.0)
        assert response.rcode == RCode.SERVFAIL  # negatives are not revived

    def test_fresh_entries_still_preferred(self):
        topo = build_topology(
            ResolverConfig(serve_stale_window=30.0), answer_ttl=60
        )
        topo.resolve("www.target-domain.")
        before = topo.target_ans.stats.queries_received
        topo.resolve("www.target-domain.")
        assert topo.target_ans.stats.queries_received == before  # fresh hit
        assert topo.resolver.stats.stale_responses == 0

    def test_stale_softens_adversarial_congestion_for_popular_names(self, monkeypatch):
        """The mitigation in action: during congestion, clients of
        *popular* (previously cached) names survive on stale data while
        cache-bypassing attack names still fail."""
        monkeypatch.setattr(resolver_module, "MAX_OUTSTANDING_PER_SERVER", 10)
        topo = build_topology(ResolverConfig(serve_stale_window=60.0), answer_ttl=2)
        topo.resolve("www.target-domain.")
        # Congest: the ANS disappears (worst case channel collapse).
        topo.net.detach("10.0.0.2")
        topo.sim.run(until=topo.sim.now + 3.0)
        popular = topo.resolve("www.target-domain.", wait=20.0)
        random_name = topo.resolve("fresh123.wc.target-domain.", wait=20.0)
        assert popular.rcode == RCode.NOERROR
        assert random_name.rcode == RCode.SERVFAIL
