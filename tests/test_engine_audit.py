"""The query engine's overdue-entry audit and the table reclaim path.

The per-query deadline timer normally delivers every verdict; the audit
is the backstop for entries *orphaned* past their deadline -- a timer
lost to a peer crash racing the event loop, or a backend bug.  These
tests orphan entries deliberately and check the audit (a) reclaims them
as timeouts, (b) re-arms only while work is outstanding, so an idle
engine holds no live timers.
"""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.sim import Simulator
from repro.server.health import HealthConfig
from repro.transport import engine as engine_module
from repro.transport.base import InflightTable
from repro.transport.engine import EngineConfig, QueryEngine, Verdict


@pytest.fixture(autouse=True)
def fast_audit(monkeypatch):
    """Audit twice per deadline, so an orphan is reclaimed quickly."""
    monkeypatch.setattr(engine_module, "AUDIT_INTERVAL", 0.5)


def make_engine(sim):
    config = EngineConfig(
        retries=0,
        deadline=1.0,
        health=HealthConfig(mode="adaptive", base_timeout=0.4),
    )
    sent = []
    engine = QueryEngine(sim, lambda message, server: sent.append(message), config)
    return engine, sent


def orphan(engine, message_id):
    """Simulate a lost deadline timer: the entry stays, no verdict comes."""
    entry = engine._inflight.get(message_id)
    assert entry is not None
    entry.payload.timer.cancel()
    entry.payload.timer = None
    entry.payload.attempts_left = 0


class TestInflightPopOverdue:
    def test_reclaims_only_past_grace(self):
        table = InflightTable(8)
        table.insert(1, deadline=1.0, now=0.0, payload="a")
        table.insert(2, deadline=5.0, now=0.0, payload="b")
        assert table.pop_overdue(1.1, grace=0.25) == []
        reclaimed = table.pop_overdue(1.3, grace=0.25)
        assert [e.payload for e in reclaimed] == ["a"]
        assert 1 not in table and 2 in table

    def test_reclaimed_entries_count_as_completed_not_violations(self):
        table = InflightTable(8)
        table.insert(1, deadline=1.0, now=0.0, payload="a")
        reclaimed = table.pop_overdue(3.0)
        assert reclaimed[0].resolved is True
        assert table.stats.completed == 1
        assert table.stats.liveness_violations == 0


class TestEngineAudit:
    def test_orphaned_entry_reclaimed_as_timeout(self):
        sim = Simulator(seed=3)
        engine, _ = make_engine(sim)
        outcomes = []
        mid = engine.lookup(
            Name.from_text("orphan.example."), RRType.A, "10.0.0.2",
            outcomes.append,
        )
        orphan(engine, mid)
        sim.run()
        assert [o.verdict for o in outcomes] == [Verdict.TIMEOUT]
        assert engine.stats.reclaimed_overdue == 1
        assert engine.stats.timeouts == 1
        assert engine.inflight_depth == 0
        assert engine.liveness_violations() == []
        # reclaim happens at the first audit tick past deadline + grace
        assert sim.now < 2.0

    def test_normal_timeout_path_never_needs_the_audit(self):
        sim = Simulator(seed=3)
        engine, _ = make_engine(sim)
        outcomes = []
        engine.lookup(
            Name.from_text("slow.example."), RRType.A, "10.0.0.2",
            outcomes.append,
        )
        sim.run()
        assert [o.verdict for o in outcomes] == [Verdict.TIMEOUT]
        assert engine.stats.reclaimed_overdue == 0

    def test_audit_timer_quiesces_when_table_empties(self):
        sim = Simulator(seed=3)
        engine, _ = make_engine(sim)
        mid = engine.lookup(Name.from_text("one.example."), RRType.A, "10.0.0.2")
        orphan(engine, mid)
        sim.run()  # terminates: the audit stopped re-arming itself
        assert engine._audit_timer is None
        assert engine.inflight_depth == 0

    def test_audit_disabled_by_zero_interval(self, monkeypatch):
        sim = Simulator(seed=3)
        monkeypatch.setattr(engine_module, "AUDIT_INTERVAL", 0.0)
        engine, _ = make_engine(sim)
        mid = engine.lookup(Name.from_text("stuck.example."), RRType.A, "10.0.0.2")
        orphan(engine, mid)
        sim.run(until=10.0)
        # nothing reclaims it: the liveness oracle reports the hang
        assert engine.stats.reclaimed_overdue == 0
        assert len(engine.liveness_violations()) == 1

    def test_audit_rearms_across_multiple_generations(self):
        sim = Simulator(seed=3)
        engine, _ = make_engine(sim)
        first = engine.lookup(Name.from_text("g1.example."), RRType.A, "10.0.0.2")
        orphan(engine, first)
        sim.run(until=2.0)
        assert engine.stats.reclaimed_overdue == 1
        second = engine.lookup(Name.from_text("g2.example."), RRType.A, "10.0.0.2")
        orphan(engine, second)
        sim.run()
        assert engine.stats.reclaimed_overdue == 2
        assert engine._audit_timer is None
