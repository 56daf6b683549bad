"""Transport protocols, the in-flight table, and the query engine.

Everything here runs on the *virtual* backend: the protocols must hold
for the simulator as-is, and the engine's retransmit/TC/shed behaviour
is pinned deterministically under virtual time (the socket twin of the
same machinery is exercised in ``test_transport_udp.py``).
"""

from typing import List, Tuple

import pytest

from repro import sanitize
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.link import Network
from repro.netsim.sim import Simulator
from repro.server.health import HealthConfig
from repro.transport.base import Clock, Fabric, InflightTable, TimerHandle
from repro.transport.engine import (
    EngineClient,
    EngineConfig,
    Outcome,
    QueryEngine,
    Verdict,
)
from repro.transport.simnet import VirtualBackend

from tests.conftest import Collector, build_topology

QNAME = Name.from_text("q.example.")
SERVER = "10.0.0.53"


class TestProtocolConformance:
    def test_simulator_satisfies_clock(self):
        sim = Simulator(seed=1)
        assert isinstance(sim, Clock)
        assert isinstance(sim.schedule(0.1, sim.rng, "x"), TimerHandle)

    def test_network_satisfies_fabric(self):
        sim = Simulator(seed=1)
        assert isinstance(Network(sim), Fabric)

    def test_virtual_backend_bundles_sim_and_network(self):
        backend = VirtualBackend(seed=3)
        assert isinstance(backend.clock, Clock)
        assert isinstance(backend.fabric, Fabric)
        fired = []
        backend.clock.schedule(0.5, fired.append, 1)
        assert backend.run() == 1
        assert fired == [1]

    @pytest.mark.parametrize("switch", [True, False])
    def test_virtual_backend_follows_the_simsan_switch(self, monkeypatch, switch):
        # REPRO_SIMSAN=1 sets sanitize.ENABLED at import; the backend's
        # simulator must heap-check exactly when a bare Simulator does
        monkeypatch.setattr(sanitize, "ENABLED", switch)
        assert VirtualBackend(seed=1).sim.sanitize is switch
        assert Simulator(seed=1).sanitize is switch


class TestInflightTable:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            InflightTable(0)

    def test_duplicate_key_rejected(self):
        table: InflightTable[str] = InflightTable(4)
        table.insert(7, 1.0, 0.0, "a")
        with pytest.raises(KeyError):
            table.insert(7, 2.0, 0.0, "b")

    def test_oldest_first_shedding(self):
        table: InflightTable[str] = InflightTable(2)
        table.insert(1, 1.0, 0.0, "a")
        table.insert(2, 1.0, 0.1, "b")
        shed = table.insert(3, 1.0, 0.2, "c")
        assert [e.payload for e in shed] == ["a"]
        assert 1 not in table and 2 in table and 3 in table
        assert table.stats.shed_capacity == 1

    def test_rekey_moves_entry_and_rolls_back_on_collision(self):
        table: InflightTable[str] = InflightTable(4)
        table.insert(1, 1.0, 0.0, "a")
        table.insert(2, 1.0, 0.0, "b")
        entry = table.rekey(1, 9)
        assert entry.key == 9 and 9 in table and 1 not in table
        with pytest.raises(KeyError):
            table.rekey(9, 2)
        assert 9 in table  # restored, not lost

    def test_rekeyed_entry_reserves_its_first_key_until_it_leaves(self):
        table: InflightTable[str] = InflightTable(4)
        table.insert(1, 1.0, 0.0, "a")
        table.rekey(1, 9)
        table.rekey(9, 10)
        assert table.get(1) is None and table.get(9) is None
        with pytest.raises(KeyError):
            table.insert(1, 1.0, 0.0, "b")
        assert table.complete(10).payload == "a"
        assert len(table) == 0
        table.insert(1, 1.0, 0.0, "b")
        table.insert(10, 1.0, 0.0, "c")
        assert [entry.payload for entry in table.entries()] == ["b", "c"]

    def test_complete_is_idempotent(self):
        table: InflightTable[str] = InflightTable(4)
        table.insert(1, 1.0, 0.0, "a")
        assert table.complete(1).payload == "a"
        assert table.complete(1) is None
        assert table.stats.completed == 1

    def test_overdue_flags_only_stale_unresolved(self):
        table: InflightTable[str] = InflightTable(4)
        table.insert(1, deadline=1.0, now=0.0, payload="stale")
        table.insert(2, deadline=9.0, now=0.0, payload="fresh")
        stuck = table.overdue(now=3.0, grace=1.0)
        assert [e.payload for e in stuck] == ["stale"]
        assert table.stats.liveness_violations == 1


def _harness(config: EngineConfig) -> Tuple[Simulator, QueryEngine, List[Message], List[Outcome]]:
    sim = Simulator(seed=5)
    wire: List[Message] = []
    outcomes: List[Outcome] = []

    def transmit(message: Message, server: str) -> None:
        assert server == SERVER
        wire.append(message)

    return sim, QueryEngine(sim, transmit, config), wire, outcomes


def _answer(query: Message, rcode: RCode = RCode.NOERROR) -> Message:
    response = query.make_response(rcode)
    response.via_tcp = query.via_tcp
    return response


class TestQueryEngine:
    def test_answered_verdict_with_rcode(self):
        sim, engine, wire, outcomes = _harness(EngineConfig())
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=0.01)
        assert engine.deliver(_answer(wire[0], RCode.NXDOMAIN), SERVER)
        assert outcomes[0].verdict is Verdict.ANSWERED
        assert outcomes[0].rcode == "NXDOMAIN"
        assert engine.stats.rcodes == {"NXDOMAIN": 1}
        assert engine.inflight_depth == 0

    def test_response_from_wrong_server_unmatched(self):
        sim, engine, wire, outcomes = _harness(EngineConfig())
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        assert not engine.deliver(_answer(wire[0]), "10.9.9.9")
        assert engine.stats.unmatched == 1
        assert not outcomes

    def test_retransmit_uses_fresh_id_then_matches(self):
        sim, engine, wire, outcomes = _harness(
            EngineConfig(retries=2, health=HealthConfig(mode="legacy", base_timeout=0.2))
        )
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=0.3)  # past the first RTO
        assert engine.stats.retransmits == 1
        assert len(wire) == 2
        assert wire[1].id != wire[0].id
        # the stale id no longer matches; the fresh one completes it
        assert not engine.deliver(_answer(wire[0]), SERVER)
        assert engine.deliver(_answer(wire[1]), SERVER)
        assert outcomes[0].verdict is Verdict.ANSWERED
        assert outcomes[0].retransmits == 1

    def test_timeout_verdict_after_retries_exhausted(self):
        sim, engine, wire, outcomes = _harness(
            EngineConfig(retries=1, deadline=2.0,
                         health=HealthConfig(mode="legacy", base_timeout=0.2))
        )
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=3.0)
        assert outcomes[0].verdict is Verdict.TIMEOUT
        assert engine.stats.timeouts == 1
        assert len(wire) == 2  # original + one retry
        assert engine.liveness_violations() == []

    def test_tc_fallback_switches_to_tcp_and_sticks(self):
        sim, engine, wire, outcomes = _harness(EngineConfig())
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=0.01)
        assert engine.deliver(wire[0].make_response().truncate(), SERVER)
        assert engine.stats.tc_fallbacks == 1
        assert len(wire) == 2 and wire[1].via_tcp
        assert engine.deliver(_answer(wire[1]), SERVER)
        assert outcomes[0].verdict is Verdict.ANSWERED
        assert outcomes[0].used_tcp

    def test_truncated_tcp_response_is_final(self):
        # TC over TCP cannot be outrun by another fallback: deliver as-is
        sim, engine, wire, outcomes = _harness(EngineConfig())
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=0.01)
        engine.deliver(wire[0].make_response().truncate(), SERVER)
        tcp_response = wire[1].make_response().truncate()
        tcp_response.via_tcp = True
        assert engine.deliver(tcp_response, SERVER)
        assert outcomes[0].verdict is Verdict.ANSWERED
        assert engine.stats.tc_fallbacks == 1

    def test_capacity_overflow_sheds_oldest_with_verdict(self):
        sim, engine, wire, outcomes = _harness(EngineConfig(inflight_capacity=1))
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        engine.lookup(Name.from_text("q2.example."), RRType.A, SERVER, outcomes.append)
        assert outcomes[0].verdict is Verdict.SHED
        assert outcomes[0].qname == str(QNAME)
        assert engine.stats.shed == 1
        # the shed query's RTO timer was cancelled: no late double verdict
        sim.run(until=5.0)
        assert [o.verdict for o in outcomes].count(Verdict.SHED) == 1

    def test_retransmitted_query_keeps_its_place_in_the_shedding_order(self):
        """A full table sheds its oldest query even when that query has
        retransmitted under a fresh id, not the younger one behind it."""
        backend = VirtualBackend(seed=5)
        client, silent_resolver = Collector("10.1.0.1"), Collector(SERVER)
        backend.attach(client)
        backend.attach(silent_resolver)
        engine = QueryEngine(
            backend.clock,
            lambda message, server: client.send(server, message),
            EngineConfig(retries=1, inflight_capacity=2,
                         health=HealthConfig(mode="legacy", base_timeout=0.2)),
        )
        verdicts = {}

        def lookup(label: str) -> None:
            engine.lookup(Name.from_text(f"{label}.example."), RRType.A, SERVER,
                          lambda outcome: verdicts.setdefault(label, outcome.verdict))

        for at, label in ((0.0, "a"), (0.1, "b"), (0.25, "c")):
            backend.clock.schedule_at(at, lookup, label)
        backend.run(until=0.3)
        assert engine.stats.retransmits == 1  # "a" at 0.2, before "c" arrived
        assert verdicts == {"a": Verdict.SHED}
        backend.run(until=5.0)
        assert verdicts == {"a": Verdict.SHED, "b": Verdict.TIMEOUT, "c": Verdict.TIMEOUT}

    def test_karn_retransmitted_sample_rejected(self):
        sim, engine, wire, outcomes = _harness(
            EngineConfig(retries=2, health=HealthConfig(mode="adaptive", base_timeout=0.2))
        )
        engine.lookup(QNAME, RRType.A, SERVER, outcomes.append)
        sim.run(until=0.3)  # force one retransmit
        engine.deliver(_answer(wire[1]), SERVER)
        assert engine.health.stats.karn_rejections == 1


class TestEngineClientVirtual:
    def test_client_resolves_through_full_virtual_stack(self):
        topo = build_topology()
        client = EngineClient(
            "10.2.0.1",
            resolver="10.0.1.1",
            make_name=lambda i: Name.from_text(f"n{i}.wc.target-domain."),
            rate=50.0,
            total=5,
        )
        topo.net.attach(client)
        client.start()
        topo.sim.run(until=20.0)
        assert client.finished
        assert client.verdicts == {"answered": 5}
        assert client.rcodes == {"NOERROR": 5}
        assert client.engine.liveness_violations() == []
