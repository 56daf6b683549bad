"""Regression: partition x serve-stale x circuit breaker, virtual time.

The resilience layers must compose through a full upstream partition:
with every authoritative unreachable, a hardened resolver keeps
answering popular names from stale cache (RFC 8767) while its circuit
breakers open; once the partition heals, the breakers re-close within
the adaptive hold-down and fresh resolution resumes.  This pins the
interaction the unified chaos driver's fault window depends on.
"""

import pytest

from repro.dnscore.message import RCode
from repro.netsim.faults import FaultInjector, Partition
from repro.server.health import HealthConfig
from repro.server.resolver import ResolverConfig

from tests.conftest import (
    ATTACKER_ANS_ADDR,
    ROOT_ADDR,
    TARGET_ANS_ADDR,
    build_topology,
)

UPSTREAMS = [ROOT_ADDR, TARGET_ANS_ADDR, ATTACKER_ANS_ADDR]
NAME = "www.target-domain."

PARTITION_START = 5.0
PARTITION_END = 15.0
BACKOFF_CAP = 0.8


def hardened_config():
    return ResolverConfig(
        max_retries=1,
        serve_stale_window=60.0,
        health=HealthConfig(
            mode="adaptive",
            base_timeout=0.3,
            rto_min=0.1,
            rto_max=0.5,
            failure_threshold=2,
            backoff_base=0.3,
            backoff_cap=BACKOFF_CAP,
        ),
    )


@pytest.fixture
def partitioned():
    topo = build_topology(resolver_config=hardened_config(), answer_ttl=1)
    injector = FaultInjector(topo.net)
    injector.add_partition(Partition(
        a=topo.resolver.address, b=UPSTREAMS,
        start=PARTITION_START, end=PARTITION_END,
    ))
    return topo, injector


class TestPartitionServeStale:
    def test_stale_served_through_total_partition(self, partitioned):
        topo, injector = partitioned
        warm = topo.resolve(NAME)  # t=0: populate the cache (TTL 1s)
        assert warm is not None and warm.rcode is RCode.NOERROR

        topo.sim.run(until=PARTITION_START + 1.0)  # TTL long expired
        during = topo.resolve(NAME)
        assert during is not None
        assert during.rcode is RCode.NOERROR
        assert during.answers, "stale answer must carry the cached rrset"
        assert topo.resolver.stats.stale_responses >= 1
        assert injector.stats.partition_cuts > 0

    def test_breakers_open_under_partition_and_reclose_after_heal(self, partitioned):
        topo, injector = partitioned
        assert topo.resolve(NAME) is not None

        topo.sim.run(until=PARTITION_START + 1.0)
        # hammer the dark upstreams until breakers trip
        for _ in range(4):
            topo.resolve(NAME, wait=1.0)
        stats = topo.resolver.stats
        assert stats.breaker_opens >= 1
        assert topo.resolver.health.any_open(topo.sim.now)

        topo.sim.run(until=PARTITION_END)
        # a post-heal lookup probes the half-open breaker; the probe
        # succeeds and the breaker re-closes
        healed = topo.resolve(NAME, wait=3.0)
        assert healed is not None and healed.rcode is RCode.NOERROR
        assert stats.breaker_closes >= 1
        # re-close must land within the decorrelated-jitter hold-down of
        # the heal: one open interval is capped at backoff_cap, plus the
        # probe round-trip itself
        close_by = PARTITION_END + BACKOFF_CAP + 1.0
        assert not topo.resolver.health.any_open(close_by)

    def test_unknown_names_fail_closed_not_hung(self, partitioned):
        topo, _ = partitioned
        assert topo.resolve(NAME) is not None
        topo.sim.run(until=PARTITION_START + 1.0)
        cold = topo.resolve("never-seen.target-domain.", wait=4.0)
        # nothing cached: the resolver must still answer (SERVFAIL), not
        # strand the client
        assert cold is not None
        assert cold.rcode is RCode.SERVFAIL
