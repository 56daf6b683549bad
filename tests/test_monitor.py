"""Anomaly monitor tests: metrics, alarms, suspicion state machine."""

import pytest

from repro.dcc import monitor as monitor_module
from repro.dcc.monitor import (
    AnomalyKind,
    AnomalyMonitor,
    ClientVerdict,
    MonitorConfig,
)
from repro.dnscore.rdata import RCode


def nx_flood(monitor, client, start, count, nx_fraction=1.0):
    """Feed answers with the given NXDOMAIN fraction."""
    for i in range(count):
        t = start + i * 0.01
        rcode = RCode.NXDOMAIN if i < count * nx_fraction else RCode.NOERROR
        monitor.record_answer(client, rcode, t)


def config(window=2.0, alarms=3):
    return MonitorConfig(window=window, alarm_threshold=alarms, suspicion_period=60.0)


class TestDetection:
    def test_nxdomain_ratio_alarm(self):
        monitor = AnomalyMonitor(config())
        nx_flood(monitor, "atk", 0.0, 20, nx_fraction=0.5)
        events = monitor.evaluate(1.0)
        assert len(events) == 1
        assert events[0].kind == AnomalyKind.NXDOMAIN
        assert monitor.verdict("atk") == ClientVerdict.SUSPICIOUS

    def test_low_nx_ratio_no_alarm(self):
        monitor = AnomalyMonitor(config())
        nx_flood(monitor, "ok", 0.0, 20, nx_fraction=0.1)  # below 0.2
        assert monitor.evaluate(1.0) == []
        assert monitor.verdict("ok") == ClientVerdict.NORMAL

    def test_noise_floor(self):
        """A couple of NXDOMAINs from a quiet client are not anomalous."""
        monitor = AnomalyMonitor(config())
        monitor.record_answer("quiet", RCode.NXDOMAIN, 0.1)
        assert monitor.evaluate(1.0) == []

    def test_amplification_alarm_via_anomalous_requests(self):
        monitor = AnomalyMonitor(config())
        for i in range(5):
            monitor.record_anomalous_request("amp", 0.1 * i)
        events = monitor.evaluate(1.0)
        assert events and events[0].kind == AnomalyKind.AMPLIFICATION

    def test_rate_alarm_optional(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "REQUEST_RATE_THRESHOLD", 10.0)
        monitor = AnomalyMonitor(config())
        for i in range(50):
            monitor.record_request("fast", i * 0.01)
        events = monitor.evaluate(1.0)
        assert events and events[0].kind == AnomalyKind.RATE

    def test_rate_disabled_by_default(self):
        monitor = AnomalyMonitor(config())
        for i in range(500):
            monitor.record_request("fast", i * 0.001)
        assert monitor.evaluate(1.0) == []


class TestStateMachine:
    def test_conviction_after_threshold_alarms(self):
        monitor = AnomalyMonitor(config(alarms=3))
        convicted = []
        for w in range(4):
            nx_flood(monitor, "atk", w * 2.0, 20)
            for event in monitor.evaluate(w * 2.0 + 1.0):
                if event.convicted:
                    convicted.append(event)
        assert len(convicted) == 1
        assert monitor.verdict("atk") == ClientVerdict.CONVICTED

    def test_countdown_decreases_per_alarm(self):
        monitor = AnomalyMonitor(config(alarms=5))
        countdowns = []
        for w in range(3):
            nx_flood(monitor, "atk", w * 2.0, 20)
            events = monitor.evaluate(w * 2.0 + 1.0)
            countdowns.append(events[0].countdown)
        assert countdowns == [4, 3, 2]

    def test_release_after_quiet_suspicion_period(self):
        cfg = config(alarms=5)
        cfg.suspicion_period = 10.0
        monitor = AnomalyMonitor(cfg)
        nx_flood(monitor, "oops", 0.0, 20)
        monitor.evaluate(1.0)
        assert monitor.verdict("oops") == ClientVerdict.SUSPICIOUS
        monitor.evaluate(15.0)  # quiet past the suspicion period
        assert monitor.verdict("oops") == ClientVerdict.NORMAL
        assert monitor.stats.releases == 1

    def test_convicted_clients_raise_no_further_events(self):
        monitor = AnomalyMonitor(config(alarms=1))
        nx_flood(monitor, "atk", 0.0, 20)
        assert monitor.evaluate(1.0)[0].convicted
        nx_flood(monitor, "atk", 2.0, 20)
        assert monitor.evaluate(3.0) == []

    def test_clear_conviction_keeps_hair_trigger(self):
        """After policy expiry the client drops back to suspicious with
        alarms = threshold-1: one more alarm re-convicts immediately
        (how a persistent attacker stays limited 'until the end')."""
        monitor = AnomalyMonitor(config(alarms=3))
        for w in range(3):
            nx_flood(monitor, "atk", w * 2.0, 20)
            monitor.evaluate(w * 2.0 + 1.0)
        assert monitor.verdict("atk") == ClientVerdict.CONVICTED
        monitor.clear_conviction("atk")
        assert monitor.verdict("atk") == ClientVerdict.SUSPICIOUS
        nx_flood(monitor, "atk", 8.0, 20)
        events = monitor.evaluate(8.5)
        assert events and events[0].convicted

    def test_external_alarm_counts(self):
        monitor = AnomalyMonitor(config(alarms=2))
        monitor.external_alarm("suspect", AnomalyKind.NXDOMAIN, 0.0)
        event = monitor.external_alarm("suspect", AnomalyKind.NXDOMAIN, 0.1)
        assert event.convicted
        assert monitor.stats.external_alarms == 2

    def test_countdown_query(self):
        monitor = AnomalyMonitor(config(alarms=10))
        assert monitor.countdown("nobody") == 10
        nx_flood(monitor, "atk", 0.0, 20)
        monitor.evaluate(1.0)
        assert monitor.countdown("atk") == 9


class TestSensitivity:
    def test_raise_sensitivity_lowers_thresholds(self):
        monitor = AnomalyMonitor(config())
        for i in range(2):  # half of amplification_request_threshold
            monitor.record_anomalous_request("amp", 0.1 * i)
        assert monitor.evaluate(0.5) == []
        monitor.raise_sensitivity(0.5)
        events = monitor.evaluate(1.0)
        assert events and events[0].kind == AnomalyKind.AMPLIFICATION
        assert monitor.config == config()  # tightened locally, not in the config

    def test_sensitivity_restored_after_duration(self):
        monitor = AnomalyMonitor(config())
        monitor.raise_sensitivity(0.0, duration=5.0)
        monitor.evaluate(10.0)
        nx_flood(monitor, "border", 10.1, 20, nx_fraction=0.15)
        assert monitor.evaluate(11.0) == []  # back under 0.2

    def test_monitors_sharing_a_config_do_not_share_sensitivity(self):
        """AttackScenario hands one MonitorConfig to every shim: a raise
        on one must not tighten the other, and overlapping raises must
        not leave the shared threshold halved for good."""
        shared = config()
        a, b = AnomalyMonitor(shared), AnomalyMonitor(shared)
        a.raise_sensitivity(0.0)
        b.raise_sensitivity(1.0)
        nx_flood(b, "border", 1.0, 20, nx_fraction=0.15)
        assert b.evaluate(1.5)  # 0.15 > 0.1: b halved the base once, not a's half
        a.evaluate(31.0)
        b.evaluate(32.0)
        assert shared == config()
        for monitor, start in ((a, 40.0), (b, 44.0)):
            nx_flood(monitor, "late", start, 20, nx_fraction=0.15)
            assert monitor.evaluate(start + 1.0) == []  # both back at 0.2
        nx_flood(a, "mid", 50.0, 20, nx_fraction=0.15)
        b.raise_sensitivity(50.0)
        assert a.evaluate(51.0) == []  # b's raise is b's alone

    def test_tightened_threshold_catches_borderline_client(self):
        monitor = AnomalyMonitor(config())
        nx_flood(monitor, "border", 0.0, 20, nx_fraction=0.15)
        assert monitor.evaluate(1.0) == []  # under 0.2
        monitor.raise_sensitivity(1.0)  # threshold now 0.1
        nx_flood(monitor, "border", 1.1, 20, nx_fraction=0.15)
        assert monitor.evaluate(2.0)


class TestHousekeeping:
    def test_purge_idle_normal_clients(self):
        monitor = AnomalyMonitor(config())
        monitor.record_request("old", 0.0)
        monitor.record_request("fresh", 100.0)
        assert monitor.purge(101.0, idle_timeout=10.0) == 1
        assert monitor.tracked_clients() == 1

    def test_purge_spares_suspicious_clients(self):
        monitor = AnomalyMonitor(config())
        nx_flood(monitor, "atk", 0.0, 20)
        monitor.evaluate(1.0)
        assert monitor.purge(100.0, idle_timeout=10.0) == 0
