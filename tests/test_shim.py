"""DCC shim integration tests: the non-invasive control loop."""

from repro.dcc import monitor as monitor_module
from repro.dcc import shim as shim_module
from repro.dcc.monitor import AnomalyKind, ClientVerdict, MonitorConfig
from repro.dcc.mopifq import MopiFqConfig
from repro.dcc.policing import PolicyKind, PolicyTemplate
from repro.dcc.shim import DccConfig, DccShim
from repro.dcc.signaling import AnomalySignal, CongestionSignal, PolicingSignal, extract_signals
from repro.dnscore.rdata import RCode

from tests.conftest import RESOLVER_ADDR, TARGET_ANS_ADDR, build_topology


def shimmed(dcc_config=None, channel_rate=1000.0, **topo_kwargs):
    topo = build_topology(**topo_kwargs)
    shim = DccShim(topo.resolver, dcc_config or DccConfig())
    shim.set_channel_capacity(TARGET_ANS_ADDR, channel_rate)
    return topo, shim


class TestTransparency:
    def test_resolution_unchanged_when_uncongested(self):
        topo, shim = shimmed()
        response = topo.resolve("a.wc.target-domain.")
        assert response.rcode == RCode.NOERROR
        assert shim.stats.queries_intercepted >= 1
        assert shim.stats.queries_sent == shim.stats.queries_scheduled

    def test_cache_hits_bypass_dcc(self):
        topo, shim = shimmed()
        topo.resolve("www.target-domain.")
        before = shim.stats.queries_intercepted
        topo.resolve("www.target-domain.")  # cache hit
        assert shim.stats.queries_intercepted == before

    def test_attribution_stripped_from_wire(self):
        from repro.dnscore.edns import OptionCode

        topo, shim = shimmed()
        seen = []
        original = topo.target_ans.receive

        def spy(message, src):
            seen.append(message.find_edns(OptionCode.CLIENT_ATTRIBUTION))
            original(message, src)

        topo.target_ans.receive = spy
        topo.resolve("b.wc.target-domain.")
        assert seen and all(option is None for option in seen)

    def test_clients_tracked_by_attribution(self):
        topo, shim = shimmed()
        topo.resolve("c.wc.target-domain.")
        assert shim.monitor.tracked_clients() == 1


class TestCongestionControl:
    def test_channel_capped_at_configured_rate(self):
        topo, shim = shimmed(channel_rate=10.0)
        for i in range(60):
            topo.client.query(RESOLVER_ADDR, f"cap{i}.wc.target-domain.")
        topo.sim.run(until=2.0)
        # Token bucket: ~burst + 2 s of rate.
        assert topo.target_ans.stats.queries_received <= 10 + 22

    def test_overflow_synthesizes_servfail_fast(self):
        topo, shim = shimmed(
            DccConfig(scheduler=MopiFqConfig(max_poq_depth=2, max_round=2)),
            channel_rate=1.0,
        )
        queries = [
            topo.client.query(RESOLVER_ADDR, f"of{i}.wc.target-domain.") for i in range(10)
        ]
        topo.sim.run(until=0.5)  # well before any query timeout
        servfails = sum(
            1
            for q in queries
            if (r := topo.client.response_to(q)) is not None and r.rcode == RCode.SERVFAIL
        )
        assert servfails > 0
        assert shim.stats.servfails_synthesized > 0

    def test_congestion_signal_attached(self):
        topo, shim = shimmed(
            DccConfig(scheduler=MopiFqConfig(max_poq_depth=2, max_round=2)),
            channel_rate=1.0,
        )
        queries = [
            topo.client.query(RESOLVER_ADDR, f"cs{i}.wc.target-domain.") for i in range(10)
        ]
        topo.sim.run(until=2.0)
        congestion = []
        for q in queries:
            r = topo.client.response_to(q)
            if r is not None:
                congestion.extend(
                    s for s in extract_signals(r) if isinstance(s, CongestionSignal)
                )
        assert congestion
        assert all(s.dropped >= 1 for s in congestion)


class TestAnomalyAndPolicing:
    def fast_monitor(self):
        return MonitorConfig(window=0.5, alarm_threshold=3, suspicion_period=30.0)

    def test_nx_abuser_convicted_and_rate_limited(self):
        config = DccConfig(
            monitor=self.fast_monitor(),
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.RATE_LIMIT, duration=20.0, rate=2.0)
            },
        )
        topo, shim = shimmed(config)
        for i in range(200):
            topo.client.query(RESOLVER_ADDR, f"x{i}.nx.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.02)
        assert shim.monitor.stats.convictions >= 1
        assert shim.engine.policy_for(topo.client.address, topo.sim.now) is not None
        assert shim.stats.queries_policed > 0

    def test_amplification_attacker_blocked(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "AMPLIFICATION_REQUEST_THRESHOLD", 2.0)
        config = DccConfig(
            monitor=MonitorConfig(
                window=0.5, alarm_threshold=2, suspicion_period=30.0,
                amplification_threshold=4.0,
            ),
        )
        topo, shim = shimmed(config)
        for i in range(12):
            topo.client.query(RESOLVER_ADDR, f"q-{i % 4}.attacker-com.")
            topo.sim.run(until=topo.sim.now + 0.15)
        topo.sim.run(until=topo.sim.now + 2.0)
        assert shim.monitor.stats.convictions >= 1
        policy = shim.engine.policy_for(topo.client.address, topo.sim.now)
        assert policy is not None and policy.kind == PolicyKind.BLOCK

    def test_benign_client_not_policed(self):
        topo, shim = shimmed(DccConfig(monitor=self.fast_monitor()))
        for i in range(50):
            topo.client.query(RESOLVER_ADDR, f"ok{i}.wc.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.05)
        assert shim.monitor.stats.convictions == 0
        assert shim.stats.queries_policed == 0

    def test_anomaly_signal_only_on_anomalous_responses(self):
        """Regression: signals on benign responses would cause the
        downstream to police innocents (the Figure 9 inversion bug)."""
        config = DccConfig(monitor=self.fast_monitor())
        topo, shim = shimmed(config)
        # Make the client suspicious with sustained NX abuse...
        nx_queries = []
        for i in range(40):
            nx_queries.append(topo.client.query(RESOLVER_ADDR, f"n{i}.nx.target-domain."))
            topo.sim.run(until=topo.sim.now + 0.03)
        # ...then send a benign request from the same client.
        ok_query = topo.client.query(RESOLVER_ADDR, "fine.wc.target-domain.")
        topo.sim.run(until=topo.sim.now + 0.5)
        assert shim.monitor.verdict(topo.client.address) in (
            ClientVerdict.SUSPICIOUS, ClientVerdict.CONVICTED,
        )
        ok_response = topo.client.response_to(ok_query)
        signals = extract_signals(ok_response)
        assert not any(isinstance(s, AnomalySignal) for s in signals)
        nx_signals = []
        for q in nx_queries:
            r = topo.client.response_to(q)
            if r is not None:
                nx_signals.extend(s for s in extract_signals(r) if isinstance(s, AnomalySignal))
        assert nx_signals  # anomalous responses did carry the signal

    def test_policing_signal_on_policed_failures(self):
        config = DccConfig(
            monitor=MonitorConfig(window=0.5, alarm_threshold=1, suspicion_period=30.0),
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.BLOCK, duration=20.0)
            },
        )
        topo, shim = shimmed(config)
        queries = []
        for i in range(100):
            queries.append(topo.client.query(RESOLVER_ADDR, f"p{i}.nx.target-domain."))
            topo.sim.run(until=topo.sim.now + 0.03)
        found = []
        for q in queries:
            r = topo.client.response_to(q)
            if r is not None:
                found.extend(s for s in extract_signals(r) if isinstance(s, PolicingSignal))
        assert found
        assert all(s.policy == PolicyKind.BLOCK for s in found)

    def test_policy_expiry_restores_service(self):
        config = DccConfig(
            monitor=MonitorConfig(window=0.5, alarm_threshold=1, suspicion_period=2.0),
            policy_templates={
                AnomalyKind.NXDOMAIN: PolicyTemplate(PolicyKind.BLOCK, duration=1.0)
            },
        )
        topo, shim = shimmed(config)
        for i in range(40):
            topo.client.query(RESOLVER_ADDR, f"e{i}.nx.target-domain.")
            topo.sim.run(until=topo.sim.now + 0.02)
        assert shim.engine.policy_for(topo.client.address, topo.sim.now) is not None
        # Behave for long enough that suspicion lapses and policy expires.
        topo.sim.run(until=topo.sim.now + 5.0)
        response = topo.resolve("recovered.wc.target-domain.")
        assert response.rcode == RCode.NOERROR


class TestAccounting:
    def test_state_byte_accounting_positive(self):
        topo, shim = shimmed()
        topo.resolve("acct.wc.target-domain.")
        assert shim.monitor.state_bytes() > 0
        assert shim.monitor.tracked_clients() == 1

    def test_purge_tick_cleans_idle_state(self, monkeypatch):
        monkeypatch.setattr(shim_module, "STATE_IDLE_TIMEOUT", 1.0)
        topo, shim = shimmed(DccConfig())
        topo.client.query(RESOLVER_ADDR, "idle.wc.target-domain.")
        topo.sim.run(until=topo.sim.now + 0.2)
        assert shim.monitor.tracked_clients() == 1
        topo.sim.run(until=topo.sim.now + 5.0)
        assert shim.monitor.tracked_clients() == 0
