"""Crash/recovery semantics: state loss, serve-stale, backoff vs partitions.

Exercises the node lifecycle end-to-end through real resolution paths:
what a resolver forgets when it dies, what RFC 8767 serve-stale rescues
while every authoritative server is down, and how the server-backoff
machinery sheds load away from a partitioned server and re-learns it
after the heal.
"""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.faults import FaultInjector, NodeOutage, Partition
from repro.server.resolver import ResolverConfig
from repro.workloads.schedule import ClientSpec

from tests.conftest import (
    RESOLVER_ADDR,
    ROOT_ADDR,
    TARGET_ANS_ADDR,
    build_topology,
)


class TestResolverCrash:
    def test_crash_wipes_cache_and_recovery_reprimes_hints(self):
        topo = build_topology()
        topo.resolve("www.target-domain.")
        assert topo.root.stats.queries_received == 1

        topo.resolver.crash()
        topo.resolver.recover()

        # The cache (including the cached delegation) is gone, but the
        # re-primed hints let the resolver walk from the root again.
        response = topo.resolve("www.target-domain.")
        assert response is not None and response.rcode == RCode.NOERROR
        assert topo.root.stats.queries_received == 2

    def test_inflight_resolutions_abandoned_silently(self):
        topo = build_topology()
        latency = topo.net.default_link.latency
        query = topo.client.query(RESOLVER_ADDR, "www.target-domain.")
        # Crash after the request reached the resolver but mid-walk.
        topo.sim.schedule_at(2.5 * latency, topo.resolver.crash)
        topo.sim.run(until=5.0)
        # No SERVFAIL for the abandoned request: the client's own timer
        # is how it learns (exactly like a real process death).
        assert topo.client.response_to(query) is None
        assert topo.resolver.pending_request_count() == 0
        assert topo.resolver.stats.servfail_responses == 0

    def test_recovered_resolver_serves_new_requests(self):
        topo = build_topology()
        topo.resolver.crash()
        topo.sim.run(until=1.0)
        topo.resolver.recover()
        response = topo.resolve("www.target-domain.")
        assert response is not None and response.rcode == RCode.NOERROR

    def test_learned_server_state_is_lost(self):
        topo = build_topology()
        topo.resolve("www.target-domain.")
        assert topo.resolver._srtt  # learned something about upstreams
        topo.resolver.crash()
        assert topo.resolver._srtt == {}
        assert topo.resolver._outstanding == {}
        assert topo.resolver._backoff_until == {}


class TestServeStaleUnderFaults:
    def test_stale_answers_bridge_an_authoritative_outage(self):
        topo = build_topology(
            ResolverConfig(serve_stale_window=30.0), answer_ttl=1
        )
        fresh = topo.resolve("www.target-domain.")
        assert fresh.rcode == RCode.NOERROR and fresh.answers
        # sim.now == 5 after resolve(); the answer's 1 s TTL has expired.

        injector = FaultInjector(topo.net)
        for ans in (ROOT_ADDR, TARGET_ANS_ADDR):
            injector.add_node_outage(
                NodeOutage(address=ans, at=topo.sim.now, duration=15.0)
            )

        stale = topo.resolve("www.target-domain.")
        assert stale is not None and stale.rcode == RCode.NOERROR
        assert stale.answers  # the expired record, resurrected
        assert topo.resolver.stats.stale_responses == 1

        # After the servers recover, answers are fresh again.
        topo.sim.run(until=21.0)
        assert topo.target_ans.up and topo.root.up
        queries_before = topo.target_ans.stats.queries_received
        again = topo.resolve("www.target-domain.")
        assert again.rcode == RCode.NOERROR and again.answers
        assert topo.target_ans.stats.queries_received > queries_before
        assert topo.resolver.stats.stale_responses == 1  # no new stale

    def test_no_stale_window_means_servfail_during_outage(self):
        topo = build_topology(answer_ttl=1)  # serve-stale off (default)
        topo.resolve("www.target-domain.")
        injector = FaultInjector(topo.net)
        for ans in (ROOT_ADDR, TARGET_ANS_ADDR):
            injector.add_node_outage(
                NodeOutage(address=ans, at=topo.sim.now, duration=15.0)
            )
        failed = topo.resolve("www.target-domain.")
        assert failed is not None and failed.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.stale_responses == 0


class TestBackoffAcrossPartition:
    def _run_partitioned_scenario(self):
        from repro.experiments.common import AttackScenario, ScenarioConfig

        config = ScenarioConfig(
            seed=7,
            duration=12.0,
            channel_capacity=100_000.0,  # RL never fires; isolate backoff
            use_dcc=False,
            target_ans_count=2,
        )
        scenario = AttackScenario(config)
        scenario.add_clients([ClientSpec("benign", 0.0, 12.0, 50.0, "WC")])
        for client in scenario.clients.values():
            client.start()

        resolver = scenario.resolvers[0]
        sim = scenario.sim

        # Warm up, then partition whichever server SRTT concentrated on.
        sim.run(until=3.0)
        per_server = resolver.stats.queries_per_server
        preferred = max(
            scenario.target_ans_addrs, key=lambda addr: per_server.get(addr, 0)
        )
        other = next(a for a in scenario.target_ans_addrs if a != preferred)
        scenario.injector.add_partition(
            Partition(a=resolver.address, b=preferred, start=3.0, end=7.0)
        )

        counts = {}

        def snapshot(tag):
            counts[tag] = (
                per_server.get(preferred, 0),
                per_server.get(other, 0),
                resolver._srtt.get(preferred),
            )

        sim.schedule_at(3.0, snapshot, "partition")
        sim.schedule_at(7.0, snapshot, "heal")
        sim.run(until=12.0)
        snapshot("end")
        return scenario, resolver, preferred, other, counts

    def test_partitioned_server_enters_backoff_and_load_shifts(self):
        scenario, resolver, preferred, other, counts = (
            self._run_partitioned_scenario()
        )
        # Consecutive timeouts toward the unreachable server triggered
        # hold-down (the BIND bad-server cache analogue).
        assert resolver.stats.server_backoffs >= 1
        assert scenario.injector.stats.partition_cuts > 0

        # During the partition, load shifted to the surviving server:
        # only probe traffic went to the partitioned one.
        to_preferred = counts["heal"][0] - counts["partition"][0]
        to_other = counts["heal"][1] - counts["partition"][1]
        assert to_other > to_preferred

    def test_srtt_recovers_after_heal(self):
        scenario, resolver, preferred, other, counts = (
            self._run_partitioned_scenario()
        )
        srtt_at_heal = counts["heal"][2]
        srtt_at_end = counts["end"][2]
        assert srtt_at_heal is not None and srtt_at_end is not None
        # Doubling-on-timeout inflated the estimate; post-heal successes
        # (exploration probes) pull the EWMA back down.
        assert srtt_at_end < srtt_at_heal
        # And the hold-down has lapsed: the server is usable again.
        assert resolver.server_available(preferred)
