"""Integration tests: the resilience layer wired through the resolver
(adaptive RTO, breakers, shedding, serve-stale, deadlines) and the
forwarder's blind failover."""

from repro.dnscore.rdata import RCode
from repro.server import forwarder as forwarder_module
from repro.server import health as health_module
from repro.server import resolver as resolver_module
from repro.server.forwarder import Forwarder, ForwarderConfig
from repro.server.health import HealthConfig
from repro.server.overload import OverloadConfig, ShedPolicy
from repro.server.resolver import ResolverConfig

from tests.conftest import RESOLVER_ADDR, TARGET_ANS_ADDR, build_topology

FWD_ADDR = "10.0.2.1"


def adaptive(**overrides):
    defaults = dict(mode="adaptive", base_timeout=0.8, failure_threshold=1)
    defaults.update(overrides)
    return HealthConfig(**defaults)


class TestPickServer:
    """Regression: availability filtering lives in pick_server itself."""

    def test_excludes_held_down_servers(self):
        topo = build_topology()
        resolver = topo.resolver
        for _ in range(resolver.config.health.failure_threshold):
            resolver.note_server_timeout(TARGET_ANS_ADDR)
        assert not resolver.server_available(TARGET_ANS_ADDR)
        assert resolver.pick_server([TARGET_ANS_ADDR]) is None
        assert resolver.pick_server([TARGET_ANS_ADDR, "10.0.0.9"]) == "10.0.0.9"

    def test_held_down_server_readmitted_after_expiry(self):
        topo = build_topology()
        resolver = topo.resolver
        for _ in range(resolver.config.health.failure_threshold):
            resolver.note_server_timeout(TARGET_ANS_ADDR)
        topo.sim.run(until=health_module.HOLD_DOWN + 0.1)
        assert resolver.pick_server([TARGET_ANS_ADDR]) == TARGET_ANS_ADDR

    def test_excludes_open_breaker_and_claimed_probe(self):
        topo = build_topology(ResolverConfig(health=adaptive()))
        resolver = topo.resolver
        resolver.note_server_timeout(TARGET_ANS_ADDR)  # threshold 1: OPEN
        assert resolver.pick_server([TARGET_ANS_ADDR]) is None
        reopen = resolver.health.peek(TARGET_ANS_ADDR).open_until
        topo.sim.run(until=reopen + 0.01)
        # HALF_OPEN with a free probe slot: selectable exactly once.
        assert resolver.pick_server([TARGET_ANS_ADDR]) == TARGET_ANS_ADDR
        assert resolver.claim_probe(TARGET_ANS_ADDR)
        assert resolver.pick_server([TARGET_ANS_ADDR]) is None


class TestAdaptiveTimeouts:
    def test_rto_replaces_fixed_query_timeout(self):
        topo = build_topology(ResolverConfig(health=adaptive()))
        resolver = topo.resolver
        assert resolver.query_timeout_for(TARGET_ANS_ADDR) == 0.8  # no samples yet
        response = topo.resolve("a.wc.target-domain.")
        assert response.rcode == RCode.NOERROR
        rto = resolver.query_timeout_for(TARGET_ANS_ADDR)
        assert 0.1 <= rto < 0.8  # adapted down to the observed LAN RTTs
        assert resolver.stats.rtt_samples > 0

    def test_legacy_mode_keeps_fixed_timeout(self):
        topo = build_topology()
        topo.resolve("a.wc.target-domain.")
        assert topo.resolver.query_timeout_for(TARGET_ANS_ADDR) == 0.8


class TestDeadlineBudget:
    def test_deadline_cuts_retries_short(self):
        topo = build_topology(ResolverConfig(
            health=HealthConfig(base_timeout=0.4),
            max_retries=3,
            overload=OverloadConfig(
                high_watermark=100, low_watermark=50, request_deadline=0.5
            ),
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        response = topo.resolve("d.wc.target-domain.", wait=5.0)
        assert response.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.deadline_exhausted >= 1
        # The 0.5 s budget allowed the first 0.4 s timer and one retry at
        # most -- nowhere near the 4 transmissions the retry budget allows.
        assert topo.resolver.stats.query_timeouts <= 2

    def test_max_resolution_time_bounds_requests_without_overload(self, monkeypatch):
        # Regression (ce-a463651009f01cfb): with no overload controller,
        # requests used to carry no deadline at all, so RTO backoff
        # against dead servers could keep one task tree alive for tens
        # of seconds.  The config-level wall must arm the deadline even
        # in a vanilla (overload=None) resolver.
        monkeypatch.setattr(resolver_module, "MAX_RESOLUTION_TIME", 1.0)
        topo = build_topology(ResolverConfig(
            health=HealthConfig(base_timeout=0.4, failure_threshold=0),
            max_retries=5,
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        # bounded by deadline + one in-flight timer, not by the retry
        # budget: the SERVFAIL must be back well before the ladder ends
        response = topo.resolve("d.wc.target-domain.", wait=2.5)
        assert response is not None
        assert response.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.deadline_exhausted >= 1

    def test_shorter_overload_deadline_still_wins(self, monkeypatch):
        monkeypatch.setattr(resolver_module, "MAX_RESOLUTION_TIME", 30.0)
        topo = build_topology(ResolverConfig(
            health=HealthConfig(base_timeout=0.4),
            max_retries=3,
            overload=OverloadConfig(
                high_watermark=100, low_watermark=50, request_deadline=0.5
            ),
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        response = topo.resolve("d.wc.target-domain.", wait=5.0)
        assert response.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.query_timeouts <= 2

    def test_zero_disables_the_wall(self, monkeypatch):
        monkeypatch.setattr(resolver_module, "MAX_RESOLUTION_TIME", 0.0)
        topo = build_topology(ResolverConfig(
            health=HealthConfig(base_timeout=0.4, failure_threshold=0),
            max_retries=2,
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        response = topo.resolve("d.wc.target-domain.", wait=5.0)
        assert response.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.deadline_exhausted == 0
        # full retry ladder ran: initial send plus both retries timed out
        assert topo.resolver.stats.query_timeouts >= 3


class TestServeStaleFastPath:
    def hardened_config(self):
        return ResolverConfig(
            serve_stale_window=30.0,
            max_retries=0,
            health=adaptive(base_timeout=0.3),
            overload=OverloadConfig(
                high_watermark=100, low_watermark=50, serve_stale=True
            ),
        )

    def test_stale_served_while_breaker_open(self):
        topo = build_topology(self.hardened_config(), answer_ttl=1)
        fresh = topo.resolve("s.wc.target-domain.")
        assert fresh.rcode == RCode.NOERROR
        topo.net.detach(TARGET_ANS_ADDR)
        # A miss for another name times out and opens the breaker.
        miss = topo.resolve("t.wc.target-domain.", wait=2.0)
        assert miss.rcode == RCode.SERVFAIL
        assert topo.resolver.stats.breaker_opens >= 1
        # The cached name expired (ttl=1) but sits in the stale window;
        # with upstream trouble it is answered pre-resolution.
        again = topo.resolve("s.wc.target-domain.")
        assert again.rcode == RCode.NOERROR
        assert topo.resolver.stats.stale_fastpath_responses == 1

    def test_no_stale_when_breakers_closed(self):
        topo = build_topology(self.hardened_config(), answer_ttl=1)
        topo.resolve("s.wc.target-domain.")
        topo.sim.run(until=topo.sim.now + 2.0)  # entry expires, all healthy
        again = topo.resolve("s.wc.target-domain.")
        assert again.rcode == RCode.NOERROR
        assert topo.resolver.stats.stale_fastpath_responses == 0


class TestShedding:
    def test_sheds_with_servfail_above_high_watermark(self):
        topo = build_topology(ResolverConfig(
            overload=OverloadConfig(
                high_watermark=2, low_watermark=0, shed_policy=ShedPolicy.SERVFAIL
            ),
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        queries = [
            topo.client.query(RESOLVER_ADDR, f"w{i}.wc.target-domain.")
            for i in range(5)
        ]
        topo.sim.run(until=0.05)  # long before any upstream timeout
        shed = [
            q for q in queries
            if (r := topo.client.response_to(q)) is not None
            and r.rcode == RCode.SERVFAIL
        ]
        assert topo.resolver.stats.shed_requests == 3
        assert len(shed) == 3

    def test_silent_drop_policy(self):
        topo = build_topology(ResolverConfig(
            overload=OverloadConfig(
                high_watermark=1, low_watermark=0, shed_policy=ShedPolicy.DROP
            ),
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        for i in range(3):
            topo.client.query(RESOLVER_ADDR, f"x{i}.wc.target-domain.")
        topo.sim.run(until=0.05)
        assert topo.resolver.stats.shed_requests == 2
        assert topo.client.responses == []  # nothing answered, nothing shed loudly

    def test_suspects_shed_first_via_probe(self):
        topo = build_topology(ResolverConfig(
            overload=OverloadConfig(high_watermark=1, low_watermark=0),
        ))
        topo.net.detach(TARGET_ANS_ADDR)
        topo.resolver.suspicion_probe = lambda client: 2  # everyone convicted
        for i in range(3):
            topo.client.query(RESOLVER_ADDR, f"y{i}.wc.target-domain.")
        topo.sim.run(until=0.05)
        assert topo.resolver.stats.shed_suspected == 2


class TestForwarderResilience:
    def build_forwarded(self, config, **topo_kwargs):
        topo = build_topology(**topo_kwargs)
        forwarder = Forwarder(FWD_ADDR, config)
        topo.net.attach(forwarder)
        return topo, forwarder

    def ask(self, topo, name, wait=5.0):
        query = topo.client.query(FWD_ADDR, name)
        topo.sim.run(until=topo.sim.now + wait)
        return topo.client.response_to(query)

    def test_servfail_without_stale_window(self, monkeypatch):
        monkeypatch.setattr(forwarder_module, "MAX_ATTEMPTS", 2)
        topo, forwarder = self.build_forwarded(
            ForwarderConfig(upstreams=[RESOLVER_ADDR], query_timeout=0.3),
            answer_ttl=1,
        )
        self.ask(topo, "f.wc.target-domain.")
        topo.net.detach(TARGET_ANS_ADDR)
        topo.sim.run(until=topo.sim.now + 1.5)
        again = self.ask(topo, "f.wc.target-domain.")
        assert again.rcode == RCode.SERVFAIL
        assert forwarder.stats.servfail_responses == 1
        assert forwarder.stats.upstream_timeouts == 2
