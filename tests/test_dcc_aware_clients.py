"""DCC-aware end hosts (paper Section 3.3): signal-driven behaviour."""

from repro.dcc.monitor import AnomalyKind, MonitorConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.dcc.shim import DccConfig, DccShim
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import NxdomainPattern, WildcardPattern

from tests.conftest import RESOLVER_ADDR, TARGET_ANS_ADDR, build_topology


def dcc_topology(channel_rate=50.0, **dcc_kwargs):
    topo = build_topology()
    shim = DccShim(topo.resolver, DccConfig(**dcc_kwargs))
    shim.set_channel_capacity(TARGET_ANS_ADDR, channel_rate)
    return topo, shim


class TestCongestionBackoff:
    def test_aware_client_slows_down_on_congestion_signals(self):
        topo, shim = dcc_topology(channel_rate=20.0)
        aware = StubClient(
            "10.1.0.50",
            WildcardPattern("target-domain."),
            ClientConfig(rate=200.0, start=0.0, stop=6.0, resolvers=[RESOLVER_ADDR],
                         dcc_aware=True, backoff_factor=0.3, backoff_recovery=30.0),
        )
        topo.net.attach(aware)
        aware.start()
        topo.sim.run(until=7.0)
        assert aware.signals.congestion, "congestion signals should arrive"
        early = sum(1 for r in aware.records if r.sent_at < 1.0)
        late = sum(1 for r in aware.records if 5.0 <= r.sent_at < 6.0)
        # Backoff: the aware client reduced its own request rate.
        assert late < early * 0.7

    def test_unaware_client_keeps_hammering(self):
        topo, shim = dcc_topology(channel_rate=20.0)
        naive = StubClient(
            "10.1.0.51",
            WildcardPattern("target-domain."),
            ClientConfig(rate=200.0, start=0.0, stop=6.0, resolvers=[RESOLVER_ADDR],
                         dcc_aware=False),
        )
        topo.net.attach(naive)
        naive.start()
        topo.sim.run(until=7.0)
        early = sum(1 for r in naive.records if r.sent_at < 1.0)
        late = sum(1 for r in naive.records if 5.0 <= r.sent_at < 6.0)
        assert late > early * 0.8  # no adaptation

    def test_congestion_signal_carries_allocated_rate(self):
        topo, shim = dcc_topology(channel_rate=20.0)
        aware = StubClient(
            "10.1.0.52",
            WildcardPattern("target-domain."),
            ClientConfig(rate=300.0, start=0.0, stop=3.0, resolvers=[RESOLVER_ADDR],
                         dcc_aware=True),
        )
        topo.net.attach(aware)
        aware.start()
        topo.sim.run(until=4.0)
        assert aware.signals.congestion
        assert all(s.allocated_rate > 0 for s in aware.signals.congestion)


class TestPolicingReaction:
    def test_policed_client_switches_resolver(self):
        topo, shim = dcc_topology(
            channel_rate=1000.0,
            monitor=MonitorConfig(window=0.5, alarm_threshold=2, suspicion_period=30.0),
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.BLOCK, duration=20.0)
            },
        )
        # A second (clean) resolver the aware client can switch to.
        spare = type(topo.resolver)("10.0.1.2", topo.resolver.config.__class__())
        spare.add_root_hint("a.root-servers.net.", "10.0.0.1")
        topo.net.attach(spare)

        aware = StubClient(
            "10.1.0.53",
            NxdomainPattern("target-domain."),
            ClientConfig(rate=100.0, start=0.0, stop=8.0,
                         resolvers=[RESOLVER_ADDR, "10.0.1.2"], dcc_aware=True),
        )
        topo.net.attach(aware)
        aware.start()
        topo.sim.run(until=9.0)
        assert aware.signals.anomaly, "anomaly signals should have warned the client"
        assert aware.signals.policing, "policing signals should have arrived"
        # After the switch, requests flow to the spare resolver.
        late_resolvers = {r.resolver for r in aware.records if r.sent_at > 6.0}
        assert "10.0.1.2" in late_resolvers

    def test_anomaly_signals_logged_before_conviction(self):
        topo, shim = dcc_topology(
            channel_rate=1000.0,
            monitor=MonitorConfig(window=0.5, alarm_threshold=8, suspicion_period=30.0),
        )
        aware = StubClient(
            "10.1.0.54",
            NxdomainPattern("target-domain."),
            ClientConfig(rate=60.0, start=0.0, stop=2.5, resolvers=[RESOLVER_ADDR],
                         dcc_aware=True),
        )
        topo.net.attach(aware)
        aware.start()
        topo.sim.run(until=3.5)
        assert aware.signals.anomaly
        countdowns = [s.countdown for s in aware.signals.anomaly]
        # Countdown shrinks as alarms accumulate: pressure is visible to
        # the (possibly compromised) end host before policing starts.
        assert min(countdowns) < max(countdowns)
