"""Live chaos orchestration: spec composition + lifecycle.

``compose_spec`` is tested as the pure function it must be (live-path
determinism depends on it never reading the clock), and the live
orchestrator is exercised over real localhost sockets end to end.  The
virtual backend needs no orchestrator: the schedule goes straight to a
:class:`FaultInjector` (tests/test_faults.py).
"""

import asyncio

import pytest

from repro.chaos import RAMP_STEP, LiveChaosOrchestrator
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.faults import LinkDegradation, NodeOutage, Partition
from repro.netsim.node import Node
from repro.transport.udp import UdpBackend

A_ADDR = "10.0.0.1"
B_ADDR = "10.0.0.2"
C_ADDR = "10.0.0.3"


def live_orchestrator(faults, seed=7):
    """A link-fault-loaded orchestrator; compose_spec needs no sockets."""
    orch = LiveChaosOrchestrator(fabric=None, clock=None, seed=seed)
    orch._link_faults.extend(faults)
    return orch


class TestComposeSpec:
    def test_partition_dominates_with_total_drop(self):
        orch = live_orchestrator([
            Partition(a=A_ADDR, b=B_ADDR, start=2.0, end=4.0),
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=2.0, end=4.0, loss=0.2),
        ])
        spec = orch.compose_spec(A_ADDR, B_ADDR, 3.0)
        assert spec.drop == 1.0
        # both directions severed
        assert orch.compose_spec(B_ADDR, A_ADDR, 3.0).drop == 1.0

    def test_clear_outside_every_window(self):
        orch = live_orchestrator([
            Partition(a=A_ADDR, b=B_ADDR, start=2.0, end=4.0),
        ])
        for at in (1.999, 4.0, 10.0):
            spec = orch.compose_spec(A_ADDR, B_ADDR, at)
            assert spec.drop == 0.0 and spec.delay_prob == 0.0

    def test_degradation_ramp_tracks_severity(self):
        orch = live_orchestrator([
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0,
                            loss=0.4, latency=0.1, ramp=4.0),
        ])
        half = orch.compose_spec(A_ADDR, B_ADDR, 2.0)     # mid-ramp
        peak = orch.compose_spec(A_ADDR, B_ADDR, 8.0)     # held at peak
        assert half.drop == pytest.approx(0.2)
        assert half.delay_max == pytest.approx(0.05)
        assert peak.drop == pytest.approx(0.4)
        assert peak.delay_max == pytest.approx(0.1)
        assert peak.delay_prob == 1.0

    def test_latency_jitter_becomes_uniform_delay_window(self):
        orch = live_orchestrator([
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0,
                            latency=0.05, jitter=0.02),
        ])
        spec = orch.compose_spec(A_ADDR, B_ADDR, 5.0)
        assert spec.delay_min == pytest.approx(0.03)
        assert spec.delay_max == pytest.approx(0.07)

    def test_degradations_compose_additively_with_loss_clamped(self):
        orch = live_orchestrator([
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0, loss=0.7),
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0, loss=0.7),
        ])
        assert orch.compose_spec(A_ADDR, B_ADDR, 5.0).drop == 1.0

    def test_unidirectional_degradation_leaves_reverse_clean(self):
        orch = live_orchestrator([
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0,
                            latency=0.05, bidirectional=False),
        ])
        assert orch.compose_spec(A_ADDR, B_ADDR, 5.0).delay_max > 0
        assert orch.compose_spec(B_ADDR, A_ADDR, 5.0).delay_max == 0.0

    def test_pure_function_of_nominal_time(self):
        # the determinism contract: same (schedule, at) => same spec,
        # regardless of call order or how often it is asked
        orch = live_orchestrator([
            Partition(a=A_ADDR, b=B_ADDR, start=2.0, end=4.0),
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=1.0, end=6.0,
                            loss=0.3, ramp=2.0),
        ])
        probes = [0.5, 1.5, 2.5, 3.999, 4.5, 6.0]
        first = [orch.compose_spec(A_ADDR, B_ADDR, at) for at in probes]
        second = [orch.compose_spec(A_ADDR, B_ADDR, at) for at in reversed(probes)]
        assert first == list(reversed(second))


class Sink(Node):
    def __init__(self, address):
        super().__init__(address)
        self.inbox = []

    def receive(self, message, src):
        self.inbox.append((self.now, message, src))


def q():
    return Message.query(Name.from_text("x.example."), RRType.A)


class TestLiveOrchestrator:
    def test_boundary_times_include_ramp_quantization(self):
        orch = live_orchestrator([
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=1.0, end=3.0,
                            loss=0.5, ramp=1.0),
        ])
        fired = []
        orch._clock = type("FakeClock", (), {
            "schedule_at": lambda self, at, fn, *args: fired.append(at),
        })()
        orch._schedule_link_boundaries()
        assert fired == sorted(fired)
        assert 1.0 in fired and 3.0 in fired
        ramp_points = [t for t in fired if 1.0 < t < 2.0]
        assert ramp_points == [round(1.0 + (i + 1) * RAMP_STEP, 6)
                               for i in range(len(ramp_points))]
        assert len(ramp_points) == 3

    def test_partition_and_outage_over_real_sockets(self):
        async def scenario():
            backend = UdpBackend(seed=5)
            a, b = Sink(A_ADDR), Sink(B_ADDR)
            backend.attach(a)
            backend.attach(b)
            await backend.start()
            orch = LiveChaosOrchestrator(backend.fabric, backend.clock, seed=5)
            await orch.apply([
                Partition(a=A_ADDR, b=B_ADDR, start=0.0, end=0.4),
                NodeOutage(address=B_ADDR, at=0.6, duration=0.3),
            ])
            clock = backend.clock
            clock.schedule_at(0.2, a.send, B_ADDR, q())    # severed by proxy
            clock.schedule_at(0.5, a.send, B_ADDR, q())    # healed: passes
            clock.schedule_at(0.7, a.send, B_ADDR, q())    # crashed: blackholed
            clock.schedule_at(1.1, a.send, B_ADDR, q())    # restarted: passes
            while clock.now < 1.6:
                await asyncio.sleep(0.02)
            stats = orch.proxy_stats()[f"{A_ADDR}<->{B_ADDR}"]
            orch.close()
            await backend.aclose()
            return b.inbox, orch.stats, stats

        inbox, stats, proxy = asyncio.run(scenario())
        assert len(inbox) == 2
        assert stats.crashes == 1 and stats.restarts == 1
        assert stats.proxies == 1 and stats.spec_updates >= 4
        assert proxy["dropped"] == 1          # the partitioned datagram
        assert proxy["unroutable"] == 1       # the crash-window datagram
        assert proxy["forwarded"] == 2
