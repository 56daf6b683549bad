"""Recursive resolver tests: iterative resolution and its pathologies."""

import pytest

from repro.dnscore.name import ROOT, Name
from repro.dnscore.rdata import RCode, RRType
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.server import health as health_module
from repro.server import resolver as resolver_module
from repro.server.health import HealthConfig
from repro.server.ratelimit import RateLimitAction, RateLimitConfig
from repro.server.resolver import ResolverConfig

from tests.conftest import ROOT_ADDR, Collector, build_topology


class TestBasicResolution:
    def test_iterative_wc_lookup(self, topology):
        response = topology.resolve("abc.wc.target-domain.")
        assert response is not None
        assert response.rcode == RCode.NOERROR
        assert response.answers[0].records[0].rdata.address == "192.0.2.10"

    def test_walks_from_root(self, topology):
        topology.resolve("abc.wc.target-domain.")
        assert topology.root.stats.queries_received == 1
        assert topology.target_ans.stats.queries_received == 1

    def test_delegation_cached_after_first_lookup(self, topology):
        topology.resolve("a.wc.target-domain.")
        topology.resolve("b.wc.target-domain.")
        assert topology.root.stats.queries_received == 1  # only the first walk

    def test_answer_cached(self, topology):
        topology.resolve("www.target-domain.")
        topology.resolve("www.target-domain.")
        assert topology.target_ans.stats.queries_received == 1
        assert topology.resolver.stats.cache_hit_responses == 1

    def test_nxdomain_resolution(self, topology):
        response = topology.resolve("ghost.nx.target-domain.")
        assert response.rcode == RCode.NXDOMAIN

    def test_negative_caching(self, topology):
        topology.resolve("ghost.nx.target-domain.")
        topology.resolve("ghost.nx.target-domain.")
        assert topology.target_ans.stats.queries_received == 1

    def test_negative_cache_expires(self, topology):
        topology.resolve("ghost.nx.target-domain.")
        topology.sim.run(until=topology.sim.now + 31.0)  # negative TTL 30
        topology.resolve("ghost.nx.target-domain.")
        assert topology.target_ans.stats.queries_received == 2

    def test_nodata_resolution(self, topology):
        response = topology.resolve("www.target-domain.", RRType.AAAA)
        assert response.rcode == RCode.NOERROR
        assert not response.answers


class TestCnameChasing:
    def test_follows_in_zone_chain(self, topology):
        # CQ instance 0, chain length 4: r1 -> r2 -> r3 -> r4 (A record).
        head = "5.4.3.2.1.r1-0.target-domain."
        response = topology.resolve(head)
        assert response.rcode == RCode.NOERROR
        # Answer carries the CNAME chain plus the terminal A RRset.
        types = [rrset.rrtype for rrset in response.answers]
        assert types.count(RRType.CNAME) == 3
        assert types[-1] == RRType.A

    def test_chain_queries_one_link_per_response(self, topology):
        head = "5.4.3.2.1.r1-0.target-domain."
        topology.resolve(head)
        # One query per link (no QMIN in the default config).
        assert topology.target_ans.stats.queries_received == 4

    def test_chain_loop_fails_safely(self, topology):
        zone = topology.target_ans.zone_for(
            __import__("repro.dnscore.name", fromlist=["Name"]).Name.from_text("target-domain.")
        )
        zone.add_cname("loop-a", "loop-b")
        zone.add_cname("loop-b", "loop-a")
        response = topology.resolve("loop-a.target-domain.")
        assert response.rcode == RCode.SERVFAIL
        assert topology.resolver.stats.cname_chain_overflows == 1


class TestQnameMinimization:
    def test_qmin_sends_per_label_queries(self):
        topo = build_topology(ResolverConfig(qname_minimization=True))
        head = "5.4.3.2.1.r1-0.target-domain."
        topo.resolve(head)
        # Each of the 4 chain links needs ~6 label probes under the cut
        # plus the final query; far more upstream queries than the 4 a
        # non-QMIN resolver sends -- the CQ amplification.
        assert topo.target_ans.stats.queries_received > 12

    def test_qmin_still_resolves_correctly(self):
        topo = build_topology(ResolverConfig(qname_minimization=True))
        response = topo.resolve("deep.wc.target-domain.")
        assert response.rcode == RCode.NOERROR

    def test_qmin_nxdomain_short_circuits(self):
        """RFC 8020: NXDOMAIN on an ancestor ends the whole lookup."""
        topo = build_topology(ResolverConfig(qname_minimization=True))
        response = topo.resolve("a.b.c.d.nx.target-domain.")
        assert response.rcode == RCode.NXDOMAIN
        # The probe for the first non-existent label sufficed.
        assert topo.target_ans.stats.queries_received <= 2


class TestFanout:
    def test_ff_amplification_factor(self, topology):
        response = topology.resolve("q-0.attacker-com.", wait=10.0)
        # fanout=3 -> 9 address lookups against the target server.
        assert topology.target_ans.stats.queries_received == 9
        assert topology.resolver.stats.ns_fanout_subtasks == 3 + 9

    def test_ff_request_eventually_fails(self, topology):
        """The dead-address nameservers never answer, so the attacker's
        own request fails -- it never cared."""
        response = topology.resolve("q-0.attacker-com.", wait=30.0)
        assert response is not None
        assert response.rcode == RCode.SERVFAIL

    def test_fanout_rounds_capped(self, topology):
        topology.resolve("q-0.attacker-com.", wait=30.0)
        first_round = topology.target_ans.stats.queries_received
        assert first_round == 9  # exactly one fan-out round per step


class TestFailureHandling:
    def test_unreachable_server_times_out_to_servfail(self):
        topo = build_topology()
        topo.net.detach("10.0.0.2")  # target ANS vanishes
        response = topo.resolve("x.wc.target-domain.", wait=20.0)
        assert response.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.query_timeouts > 0
        assert topo.resolver.stats.query_retries > 0

    def test_ingress_rl_on_clients(self):
        topo = build_topology(ResolverConfig(
            ingress_limit=RateLimitConfig(rate=2, burst=2, action=RateLimitAction.DROP)
        ))
        queries = [topo.client.query("10.0.1.1", f"r{i}.wc.target-domain.") for i in range(5)]
        topo.sim.run(until=5.0)
        answered = sum(1 for q in queries if topo.client.response_to(q))
        assert answered == 2
        assert topo.resolver.stats.ingress_limited == 3

    def test_egress_rl_drops_queries(self):
        topo = build_topology(ResolverConfig(
            egress_limit=RateLimitConfig(rate=1, burst=1)
        ))
        for i in range(4):
            topo.client.query("10.0.1.1", f"e{i}.wc.target-domain.")
        topo.sim.run(until=1.0)
        assert topo.resolver.stats.egress_limited > 0

    def test_fetch_quota_rejects_excess_outstanding(self, monkeypatch):
        monkeypatch.setattr(resolver_module, "MAX_OUTSTANDING_PER_SERVER", 2)
        topo = build_topology()
        topo.net.detach("10.0.0.2")  # queries will hang until timeout
        for i in range(6):
            topo.client.query("10.0.1.1", f"h{i}.wc.target-domain.")
        topo.sim.run(until=0.5)  # before the first timeout fires
        assert topo.resolver.stats.quota_rejections > 0
        assert topo.resolver._outstanding.get("10.0.0.2", 0) <= 2

    def test_quota_decline_fails_over_within_the_step(self, monkeypatch):
        """A server at its fetch quota hands the query to the step's next
        server without walking the cache again."""
        scenario = AttackScenario(ScenarioConfig(target_ans_count=2))
        resolver = scenario.resolvers[0]
        client = Collector()
        scenario.net.attach(client)
        client.query(resolver.address, "warm.wc.target-domain.")
        scenario.sim.run(until=1.0)  # caches the two-server delegation
        busy, spare = scenario.target_ans_addrs
        for _ in range(resolver_module.MAX_OUTSTANDING_PER_SERVER):
            assert resolver.acquire_server_slot(busy)

        steps = []
        walk, transmit = resolver.cache.deepest_known_cut, resolver.transmit_query

        def counted_walk(name, now):
            steps.append("walk")
            return walk(name, now)

        def recorded_transmit(query, server):
            steps.append(server)
            transmit(query, server)

        monkeypatch.setattr(resolver.cache, "deepest_known_cut", counted_walk)
        monkeypatch.setattr(resolver, "transmit_query", recorded_transmit)
        monkeypatch.setattr(resolver, "pick_server", lambda candidates: busy if busy in candidates else candidates[0])
        client.query(resolver.address, "x.wc.target-domain.")
        scenario.sim.run(until=1.5)
        assert steps[:2] == ["walk", spare]
        assert resolver.stats.quota_rejections == 1

    def test_server_backoff_after_timeout_streak(self, monkeypatch):
        monkeypatch.setattr(health_module, "HOLD_DOWN", 5.0)
        topo = build_topology(ResolverConfig(
            health=HealthConfig(base_timeout=0.3, failure_threshold=2), max_retries=0,
        ))
        topo.net.detach("10.0.0.2")
        for i in range(4):
            topo.client.query("10.0.1.1", f"b{i}.wc.target-domain.")
            topo.sim.run(until=topo.sim.now + 1.0)
        assert topo.resolver.stats.server_backoffs >= 1
        assert not topo.resolver.health.available("10.0.0.2", topo.resolver.now)

    def test_duplicate_request_not_doubled(self, topology):
        from repro.dnscore.message import Message
        from repro.dnscore.name import Name

        q = Message.query(Name.from_text("dup.wc.target-domain."), RRType.A)
        topology.client.send("10.0.1.1", q)
        topology.client.send("10.0.1.1", q)  # identical retransmission
        topology.sim.run(until=5.0)
        assert topology.resolver.stats.requests_received == 2
        assert topology.target_ans.stats.queries_received == 1


class TestSrttSelection:
    def test_prefers_faster_server(self):
        topo = build_topology()
        resolver = topo.resolver
        resolver.note_server_rtt("fast", 0.001)
        resolver.note_server_rtt("slow", 0.5)
        picks = [resolver.pick_server(["fast", "slow"]) for _ in range(50)]
        assert picks.count("fast") > 40

    def test_timeout_penalty_flips_preference(self):
        topo = build_topology()
        resolver = topo.resolver
        resolver.note_server_rtt("a", 0.001)
        resolver.note_server_rtt("b", 0.002)
        for _ in range(4):
            resolver.note_server_timeout("a")
        picks = [resolver.pick_server(["a", "b"]) for _ in range(50)]
        assert picks.count("b") > 40


class TestCacheUpkeep:
    def test_purge_tick_sweeps_dead_entries(self):
        """Unique 1 s-TTL names asked across three purge ticks: what is
        left is younger than the last tick, not the whole run."""
        topo = build_topology(answer_ttl=1)
        assert resolver_module.PURGE_INTERVAL == 10.0
        for i in range(340):  # ticks at 10, 20 and 30 s after the first request
            topo.sim.schedule_at(i * 0.1, topo.client.query, "10.0.1.1", f"u{i}.wc.target-domain.")
        topo.sim.run(until=35.0)
        cache = topo.resolver.cache
        assert [r.rcode for r in topo.client.responses] == [RCode.NOERROR] * 340
        assert all(entry.expires > 30.0 for entry in cache._entries.values())
        assert len(cache) < 60 and cache.expirations > 280

    def test_full_cache_that_evicted_the_root_hints_still_resolves(self, monkeypatch):
        """Dead entries fill a small cache before any purge tick; LRU takes
        the root NS first, then its glue, then the target's delegation --
        reads never refresh them."""
        monkeypatch.setattr(resolver_module, "CACHE_SIZE", 50)
        topo = build_topology(negative_ttl=1)
        for i in range(60):
            topo.sim.schedule_at(i * 0.05, topo.client.query, "10.0.1.1", f"g{i}.nx.target-domain.")
        topo.sim.run(until=4.0)
        assert topo.resolver.cache.evictions > 2
        assert [r.rcode for r in topo.client.responses] == [RCode.NXDOMAIN] * 60
        response = topo.resolve("fresh.wc.target-domain.")
        assert response.rcode == RCode.NOERROR

    @pytest.mark.parametrize("evicted", ["NS", "glue"])
    def test_walk_that_reaches_the_root_without_an_address_reprimes(self, evicted):
        topo = build_topology()
        cache, hint = topo.resolver.cache, Name.from_text("a.root-servers.net.")
        del cache._entries[(ROOT.labels, RRType.NS) if evicted == "NS" else (hint.labels, RRType.A)]
        response = topo.resolve("x.wc.target-domain.")
        assert response.rcode == RCode.NOERROR
        assert topo.root.stats.queries_received == 1
        assert cache.addresses_for(hint, topo.sim.now) == [ROOT_ADDR]
