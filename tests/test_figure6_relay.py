"""The Figure 6 signaling dynamic: countdown relay along a chain.

The resolver (R) generates anomaly signals with a countdown; forwarders
relay them towards the culprit, optionally lowering the countdown "so
that the suspect is stressed to react more rapidly" (F1 lowers by 5 in
the figure; F2 relays unchanged).  Once the countdown falls below a
forwarder's threshold, it polices the suspect itself, sparing its other
clients (the P parallelogram in the figure).
"""

import pytest

from repro.dcc import monitor as monitor_module
from repro.dcc.monitor import MonitorConfig
from repro.dcc.shim import DccConfig, DccShim
from repro.server.forwarder import Forwarder, ForwarderConfig
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import NxdomainPattern

from tests.conftest import RESOLVER_ADDR, build_topology

FWD_ADDR = "10.0.2.1"


@pytest.fixture(autouse=True)
def no_amplification_alarms(monkeypatch):
    """The suspect's NX flood never amplifies; with the amplification
    alarm off, an impossible NX ratio silences a monitor entirely."""
    monkeypatch.setattr(monitor_module, "AMPLIFICATION_REQUEST_THRESHOLD", 1e9)


def build_chain(countdown_decrement, countdown_threshold, alarm_threshold=12):
    """stub -> DCC forwarder -> DCC resolver -> (root, ANS)."""
    topo = build_topology()
    resolver_shim = DccShim(topo.resolver, DccConfig(
        monitor=MonitorConfig(window=0.5, alarm_threshold=alarm_threshold,
                              suspicion_period=60.0),
    ))
    resolver_shim.set_channel_capacity("10.0.0.2", 10_000.0)
    forwarder = Forwarder(FWD_ADDR, ForwarderConfig(upstreams=[RESOLVER_ADDR]))
    topo.net.attach(forwarder)
    # The forwarder's own detection is neutralised (impossible ratio)
    # so that only *relayed* signals reach the suspect -- isolating the
    # Figure 6 relay mechanics from local monitoring.
    forwarder_shim = DccShim(forwarder, DccConfig(
        monitor=MonitorConfig(window=0.5, alarm_threshold=alarm_threshold,
                              suspicion_period=60.0,
                              nxdomain_ratio_threshold=2.0),
        countdown_decrement=countdown_decrement,
        countdown_threshold=countdown_threshold,
    ))
    suspect = StubClient(
        "10.1.0.66",
        NxdomainPattern("target-domain."),
        ClientConfig(rate=80.0, start=0.0, stop=6.0, resolvers=[FWD_ADDR],
                     dcc_aware=True),
    )
    topo.net.attach(suspect)
    return topo, resolver_shim, forwarder_shim, suspect


class TestCountdownRelay:
    def test_f2_relays_unchanged(self):
        """Figure 6's F2: decrement 0 -> the suspect sees the resolver's
        own countdown values."""
        topo, resolver_shim, forwarder_shim, suspect = build_chain(
            countdown_decrement=0, countdown_threshold=0)
        suspect.start()
        topo.sim.run(until=4.0)
        assert suspect.signals.anomaly
        countdowns = sorted({s.countdown for s in suspect.signals.anomaly}, reverse=True)
        assert countdowns[0] >= 10  # near the initial alarm budget (12)

    def test_f1_lowers_countdown(self):
        """Figure 6's F1: decrement 5 -> the suspect is pressured with
        countdowns 5 lower than the resolver issued."""
        topo_f2, _, _, suspect_f2 = build_chain(0, 0)
        suspect_f2.start()
        topo_f2.sim.run(until=4.0)
        topo_f1, _, _, suspect_f1 = build_chain(5, 0)
        suspect_f1.start()
        topo_f1.sim.run(until=4.0)
        max_f2 = max(s.countdown for s in suspect_f2.signals.anomaly)
        max_f1 = max(s.countdown for s in suspect_f1.signals.anomaly)
        assert max_f1 == max_f2 - 5

    def test_threshold_triggers_policing_at_forwarder(self):
        """Once the relayed countdown dips below the threshold, the
        forwarder polices the suspect itself (the 'P' in Figure 6)."""
        topo, resolver_shim, forwarder_shim, suspect = build_chain(
            countdown_decrement=0, countdown_threshold=8)
        suspect.start()
        topo.sim.run(until=8.0)
        assert forwarder_shim.stats.signal_triggered_policings >= 1
        assert forwarder_shim.engine.policy_for(suspect.address, topo.sim.now) is not None
        # The forwarder acted before the resolver convicted anyone: the
        # forwarder itself never got policed upstream.
        assert resolver_shim.monitor.stats.convictions == 0

    def test_other_clients_unaffected_by_policing(self):
        from repro.workloads.patterns import WildcardPattern

        topo, resolver_shim, forwarder_shim, suspect = build_chain(
            countdown_decrement=0, countdown_threshold=8)
        innocent = StubClient(
            "10.1.0.77",
            WildcardPattern("target-domain."),
            ClientConfig(rate=20.0, start=0.0, stop=8.0, resolvers=[FWD_ADDR]),
        )
        topo.net.attach(innocent)
        suspect.start()
        innocent.start()
        topo.sim.run(until=9.0)
        assert forwarder_shim.engine.policy_for(suspect.address, topo.sim.now) is not None
        assert innocent.success_ratio(1.0, 8.0) > 0.95
