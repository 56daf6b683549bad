"""Pre-queue policing tests."""

import pytest

from repro.dcc.monitor import AnomalyKind
from repro.dcc.policing import (
    DEFAULT_TEMPLATES,
    SIGNAL_TRIGGERED_TEMPLATE,
    PolicyEngine,
    PolicyKind,
    PolicyTemplate,
)


class TestDefaults:
    def test_paper_templates(self):
        """Section 5.1: NX -> 100 QPS for 20 s; amplification -> block 30 s."""
        nx = DEFAULT_TEMPLATES[AnomalyKind.NXDOMAIN]
        assert nx.kind == PolicyKind.RATE_LIMIT
        assert nx.rate == 100.0 and nx.duration == 20.0
        amp = DEFAULT_TEMPLATES[AnomalyKind.AMPLIFICATION]
        assert amp.kind == PolicyKind.BLOCK and amp.duration == 30.0
        assert SIGNAL_TRIGGERED_TEMPLATE.kind == PolicyKind.BLOCK


class TestEnforcement:
    def test_unpoliced_client_passes(self):
        engine = PolicyEngine()
        assert engine.check("anyone", 0.0)
        assert engine.stats.queries_passed == 1

    def test_block_policy_blocks_everything(self):
        engine = PolicyEngine()
        engine.convict("atk", AnomalyKind.AMPLIFICATION, now=0.0)
        assert not engine.check("atk", 1.0)
        assert not engine.check("atk", 29.0)
        assert engine.stats.queries_blocked == 2

    def test_rate_limit_policy_throttles(self):
        engine = PolicyEngine({AnomalyKind.NXDOMAIN: PolicyTemplate(
            PolicyKind.RATE_LIMIT, duration=20.0, rate=2.0)})
        engine.convict("atk", AnomalyKind.NXDOMAIN, now=0.0)
        results = [engine.check("atk", 0.1) for _ in range(5)]
        assert results.count(True) == 2
        assert engine.stats.queries_rate_limited == 3

    def test_rate_limit_refills(self):
        engine = PolicyEngine({AnomalyKind.NXDOMAIN: PolicyTemplate(
            PolicyKind.RATE_LIMIT, duration=60.0, rate=2.0)})
        engine.convict("atk", AnomalyKind.NXDOMAIN, now=0.0)
        while engine.check("atk", 0.0):
            pass
        assert engine.check("atk", 1.0)  # 2 tokens/s refill

    def test_other_clients_unaffected(self):
        engine = PolicyEngine()
        engine.convict("atk", AnomalyKind.AMPLIFICATION, now=0.0)
        assert engine.check("benign", 1.0)


class TestExpiry:
    def test_policy_expires(self):
        engine = PolicyEngine()
        engine.convict("atk", AnomalyKind.AMPLIFICATION, now=0.0)  # 30 s block
        assert not engine.check("atk", 29.9)
        assert engine.check("atk", 30.1)
        assert engine.stats.policies_expired == 1

    def test_expiry_callback(self):
        expired = []
        engine = PolicyEngine(on_expire=expired.append)
        engine.convict("atk", AnomalyKind.AMPLIFICATION, now=0.0)
        engine.check("atk", 31.0)
        assert expired == ["atk"]

    def test_policy_for_and_is_policed(self):
        engine = PolicyEngine()
        policy = engine.convict("atk", AnomalyKind.NXDOMAIN, now=0.0)
        assert engine.policy_for("atk", 1.0) is not None
        assert engine.policy_for("atk", 1.0) is policy
        assert policy.remaining(5.0) == pytest.approx(15.0)
        assert engine.policy_for("atk", 25.0) is None

    def test_sweep(self):
        engine = PolicyEngine()
        engine.convict("a", AnomalyKind.AMPLIFICATION, now=0.0)
        engine.convict("b", AnomalyKind.NXDOMAIN, now=0.0)
        assert engine.sweep(25.0) == 1  # b's 20 s rate limit expired
        assert engine.sweep(35.0) == 1  # a's 30 s block expired

    def test_active_policies(self):
        engine = PolicyEngine()
        engine.convict("a", AnomalyKind.AMPLIFICATION, now=0.0)
        active = engine.active_policies(1.0)
        assert set(active) == {"a"}


class TestReconviction:
    def test_new_conviction_replaces_policy(self):
        engine = PolicyEngine()
        engine.convict("atk", AnomalyKind.NXDOMAIN, now=0.0)
        policy = engine.convict("atk", AnomalyKind.AMPLIFICATION, now=5.0)
        assert policy.kind == PolicyKind.BLOCK
        assert not engine.check("atk", 10.0)

    def test_unknown_kind_gets_fallback(self):
        engine = PolicyEngine(templates={})
        policy = engine.convict("atk", AnomalyKind.RATE, now=0.0)
        assert policy.kind == PolicyKind.RATE_LIMIT
