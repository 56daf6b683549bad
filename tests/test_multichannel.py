"""End-to-end multi-channel isolation: the heart of the MO-FQ problem.

One resolver, two victim domains on two authoritative servers (two
output channels).  An attacker congests channel A; clients of the
domain on channel B must be completely unaffected -- the per-channel
fairness that distinguishes MOPI-FQ from every classic FQ variant
(paper Section 4.1).
"""

from repro.dcc.shim import DccConfig, DccShim
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.server.ratelimit import RateLimitConfig
from repro.server.resolver import RecursiveResolver, ResolverConfig
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import WildcardPattern
from repro.workloads.zonegen import build_root_zone, build_target_zone

RESOLVER = "10.0.1.1"
ANS_A = "10.0.0.2"
ANS_B = "10.0.0.12"
CAPACITY = 100.0


def build_two_channel_world(use_dcc: bool, seed=9):
    sim = Simulator(seed=seed)
    net = Network(sim)
    root_zone = build_root_zone({
        "domain-a.": ("ns1.domain-a.", ANS_A),
        "domain-b.": ("ns1.domain-b.", ANS_B),
    })
    vanilla_rl = RateLimitConfig(rate=CAPACITY, mode="window")
    ans_a = AuthoritativeServer(ANS_A, zones=[
        build_target_zone("domain-a.", "ns1", ANS_A)], ingress_limit=vanilla_rl)
    ans_b = AuthoritativeServer(ANS_B, zones=[
        build_target_zone("domain-b.", "ns1", ANS_B)],
        ingress_limit=RateLimitConfig(rate=CAPACITY, mode="window"))
    resolver = RecursiveResolver(RESOLVER, ResolverConfig())
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")
    root = AuthoritativeServer("10.0.0.1", zones=[root_zone])
    for node in (root, ans_a, ans_b, resolver):
        net.attach(node)
    shim = None
    if use_dcc:
        shim = DccShim(resolver, DccConfig())
        shim.set_channel_capacity(ANS_A, CAPACITY)
        shim.set_channel_capacity(ANS_B, CAPACITY)

    attacker = StubClient("10.2.0.1", WildcardPattern("domain-a."),
                          ClientConfig(rate=500.0, start=0.0, stop=10.0,
                                       resolvers=[RESOLVER]))
    victim_a = StubClient("10.1.0.1", WildcardPattern("domain-a."),
                          ClientConfig(rate=30.0, start=0.0, stop=10.0,
                                       resolvers=[RESOLVER]))
    bystander_b = StubClient("10.1.0.2", WildcardPattern("domain-b."),
                             ClientConfig(rate=30.0, start=0.0, stop=10.0,
                                          resolvers=[RESOLVER]))
    for client in (attacker, victim_a, bystander_b):
        net.attach(client)
        client.start()
    sim.run(until=12.0)
    return {
        "attacker": attacker, "victim_a": victim_a, "bystander_b": bystander_b,
        "ans_a": ans_a, "ans_b": ans_b, "resolver": resolver, "shim": shim,
    }


class TestChannelIsolation:
    def test_bystander_channel_unaffected_with_dcc(self):
        world = build_two_channel_world(use_dcc=True)
        assert world["bystander_b"].success_ratio(1.0, 10.0) > 0.97

    def test_bystander_unaffected_even_vanilla(self):
        """Channel B's capacity is independent even without DCC (the
        ANS-side limits are per-channel); the attack only hurts A."""
        world = build_two_channel_world(use_dcc=False)
        assert world["bystander_b"].success_ratio(1.0, 10.0) > 0.9

    def test_victim_channel_fairly_shared_with_dcc(self):
        world = build_two_channel_world(use_dcc=True)
        # Fair share on channel A is 50 each; the victim demands 30.
        assert world["victim_a"].success_ratio(2.0, 10.0) > 0.9

    def test_victim_starved_without_dcc(self):
        world = build_two_channel_world(use_dcc=False)
        assert world["victim_a"].success_ratio(2.0, 10.0) < 0.75

    def test_attacker_capped_at_channel_share(self):
        world = build_two_channel_world(use_dcc=True)
        attacker_rate = sum(world["attacker"].effective_qps_series(10.0)[2:10]) / 8
        assert attacker_rate < CAPACITY  # never more than channel A

    def test_scheduler_tracked_both_channels(self):
        world = build_two_channel_world(use_dcc=True)
        shim = world["shim"]
        assert shim.scheduler.channel_bucket(ANS_A).rate == CAPACITY
        assert shim.scheduler.channel_bucket(ANS_B).rate == CAPACITY
        # both channels were served: every query an ANS saw came out of the scheduler
        sent = [world[name].stats.queries_received for name in ("ans_a", "ans_b")]
        assert all(sent) and sum(sent) <= shim.scheduler.stats.dequeued, sent
