"""The fault-injecting UDP proxy and its order-independent schedule."""

import asyncio
from typing import List, Tuple

import pytest

from repro.dnscore.message import Message
from repro.netsim.node import Node
from repro.transport.chaosproxy import ChaosProxy, ChaosSpec, FaultSchedule
from repro.transport.udp import UdpBackend

from tests.conftest import Collector

A_ADDR = "10.1.0.1"
B_ADDR = "10.0.0.2"


async def _wait_until(predicate, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not met before timeout")
        await asyncio.sleep(0.01)


class Recorder(Node):
    """Collects (message, claimed-source) pairs."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.received: List[Tuple[Message, str]] = []

    def receive(self, message: Message, src: str) -> None:
        self.received.append((message, src))


class TestChaosSpec:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(drop=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(duplicate=-0.1)
        with pytest.raises(ValueError):
            ChaosSpec(delay_prob=0.5, delay_min=0.2, delay_max=0.1)


class TestFaultSchedule:
    SPEC = ChaosSpec(drop=0.3, duplicate=0.2, delay_prob=0.4,
                     delay_min=0.01, delay_max=0.05)

    def test_same_seed_same_decisions(self):
        a = FaultSchedule(7, self.SPEC)
        b = FaultSchedule(7, self.SPEC)
        keys = [f"q{i}.example./1" for i in range(50)]
        assert [a.decide("x>y", k) for k in keys] == [b.decide("x>y", k) for k in keys]

    def test_decisions_independent_of_arrival_order(self):
        # the property real sockets need: interleaving two flows must not
        # change any packet's fate
        interleaved = FaultSchedule(7, self.SPEC)
        sequential = FaultSchedule(7, self.SPEC)
        fates = {}
        for i in range(10):
            fates[("k1", i)] = interleaved.decide("x>y", "k1")
            fates[("k2", i)] = interleaved.decide("x>y", "k2")
        for i in range(10):
            assert sequential.decide("x>y", "k1") == fates[("k1", i)]
        for i in range(10):
            assert sequential.decide("x>y", "k2") == fates[("k2", i)]

    def test_decide_is_peek_plus_counter(self):
        schedule = FaultSchedule(7, self.SPEC)
        first = schedule.decide("x>y", "k")
        second = schedule.decide("x>y", "k")
        assert first == schedule.peek("x>y", "k", 0)
        assert second == schedule.peek("x>y", "k", 1)
        assert first != second or first.drop == second.drop  # occurrences differ

    def test_direction_and_seed_change_fates(self):
        schedule = FaultSchedule(7, self.SPEC)
        other_seed = FaultSchedule(8, self.SPEC)
        fwd = [schedule.peek("a>b", f"k{i}", 0).drop for i in range(64)]
        rev = [schedule.peek("b>a", f"k{i}", 0).drop for i in range(64)]
        reseeded = [other_seed.peek("a>b", f"k{i}", 0).drop for i in range(64)]
        assert fwd != rev
        assert fwd != reseeded

    def test_drop_rate_tracks_probability(self):
        schedule = FaultSchedule(3, ChaosSpec(drop=0.3))
        n = 4000
        drops = sum(
            schedule.peek("x>y", f"k{i}", 0).drop for i in range(n)
        )
        assert 0.25 < drops / n < 0.35

    def test_delay_bounded_by_spec(self):
        schedule = FaultSchedule(3, self.SPEC)
        for i in range(200):
            decision = schedule.peek("x>y", f"k{i}", 0)
            if decision.delay:
                assert self.SPEC.delay_min <= decision.delay <= self.SPEC.delay_max
            assert decision.duplicate_delay > decision.delay


class TestFaultScheduleSwaps:
    """Mid-run spec swaps: how the chaos orchestrator drives the proxy."""

    def test_per_direction_override_and_default(self):
        schedule = FaultSchedule(7, ChaosSpec())
        schedule.set_spec(ChaosSpec(drop=1.0), "a>b")
        assert schedule.spec_for("a>b").drop == 1.0
        assert schedule.spec_for("b>a").drop == 0.0  # default untouched
        schedule.set_spec(ChaosSpec(drop=0.5))       # new default
        assert schedule.spec_for("b>a").drop == 0.5
        assert schedule.spec_for("a>b").drop == 1.0  # override still wins

    def test_extreme_probabilities_are_swap_stable(self):
        # at drop 0.0 / 1.0 a fate cannot depend on the occurrence
        # counter, so two runs whose swap happened at different packet
        # counts still agree -- the live partition determinism argument
        early = FaultSchedule(7, ChaosSpec())
        late = FaultSchedule(7, ChaosSpec())
        late.decide("a>b", "k")          # extra pre-swap traffic
        late.decide("a>b", "k")
        for schedule in (early, late):
            schedule.set_spec(ChaosSpec(drop=1.0), "a>b")
        assert early.decide("a>b", "k").drop is True
        assert late.decide("a>b", "k").drop is True

    def test_occurrence_counters_persist_across_swaps(self):
        schedule = FaultSchedule(7, ChaosSpec())
        schedule.decide("a>b", "k")      # occurrence 0 consumed
        spec = ChaosSpec(drop=0.5)
        schedule.set_spec(spec, "a>b")
        swapped = schedule.decide("a>b", "k")
        # the post-swap decision is peek(occurrence=1) under the new
        # spec: hash material never depends on when the swap happened
        fresh = FaultSchedule(7, ChaosSpec())
        fresh.set_spec(spec, "a>b")
        assert swapped == fresh.peek("a>b", "k", 1)


class TestProxyChannelSurface:
    """The socket-free orchestration surface of a proxy."""

    def test_direction_labels_and_channel(self):
        backend, _, _, proxy = _proxied(ChaosSpec())
        assert (proxy._a, proxy._b) == (A_ADDR, B_ADDR)
        assert proxy.direction(A_ADDR, B_ADDR) == f"{A_ADDR}>{B_ADDR}"
        assert proxy.direction(B_ADDR, A_ADDR) == f"{B_ADDR}>{A_ADDR}"
        with pytest.raises(KeyError):
            proxy.direction(A_ADDR, "10.9.9.9")

    def test_set_spec_routes_to_the_schedule(self):
        backend, _, _, proxy = _proxied(ChaosSpec())
        proxy.set_spec(ChaosSpec(drop=1.0), proxy.direction(A_ADDR, B_ADDR))
        assert proxy._schedule.spec_for(f"{A_ADDR}>{B_ADDR}").drop == 1.0
        assert proxy._schedule.spec_for(f"{B_ADDR}>{A_ADDR}").drop == 0.0

    def test_crashed_destination_counts_unroutable(self):
        backend, a, b, proxy = _proxied(ChaosSpec())

        async def run():
            await backend.start()
            await proxy.start()
            try:
                backend.fabric.crash_node(B_ADDR)
                a.query(B_ADDR, "void.example.")
                await _wait_until(lambda: proxy.stats.unroutable == 1)
                assert b.received == []
                assert proxy.stats.forwarded == 0
            finally:
                proxy.close()
                await backend.aclose()

        asyncio.run(run())


def _proxied(spec: ChaosSpec, seed: int = 5):
    backend = UdpBackend(seed=seed)
    a = Collector(A_ADDR)
    b = Recorder(B_ADDR)
    backend.attach(a)
    backend.attach(b)
    proxy = ChaosProxy(backend.fabric, backend.clock, A_ADDR, B_ADDR, spec, seed)
    return backend, a, b, proxy


class TestChaosProxy:
    def test_clean_relay_preserves_attribution(self):
        backend, a, b, proxy = _proxied(ChaosSpec())

        async def run():
            await backend.start()
            await proxy.start()
            try:
                a.query(B_ADDR, "q.example.")
                await _wait_until(lambda: len(b.received) == 1)
                message, src = b.received[0]
                assert src == A_ADDR  # relay alias maps back to the true peer
                assert str(message.question.name) == "q.example."
                assert proxy.stats.forwarded == 1
            finally:
                proxy.close()
                await backend.aclose()

        asyncio.run(run())

    def test_full_drop_blackholes_channel(self):
        backend, a, b, proxy = _proxied(ChaosSpec(drop=1.0))

        async def run():
            await backend.start()
            await proxy.start()
            try:
                for i in range(3):
                    a.query(B_ADDR, f"q{i}.example.")
                await _wait_until(lambda: proxy.stats.dropped == 3)
                await asyncio.sleep(0.05)
                assert b.received == []
                assert proxy.stats.forwarded == 0
            finally:
                proxy.close()
                await backend.aclose()

        asyncio.run(run())

    def test_duplicates_arrive_twice(self):
        backend, a, b, proxy = _proxied(ChaosSpec(duplicate=1.0))

        async def run():
            await backend.start()
            await proxy.start()
            try:
                a.query(B_ADDR, "q.example.")
                await _wait_until(lambda: len(b.received) == 2)
                assert proxy.stats.duplicated == 1
            finally:
                proxy.close()
                await backend.aclose()

        asyncio.run(run())

    def test_delayed_packets_still_arrive(self):
        backend, a, b, proxy = _proxied(
            ChaosSpec(delay_prob=1.0, delay_min=0.02, delay_max=0.04)
        )

        async def run():
            await backend.start()
            await proxy.start()
            try:
                a.query(B_ADDR, "q.example.")
                await _wait_until(lambda: len(b.received) == 1)
                assert proxy.stats.delayed == 1
            finally:
                proxy.close()
                await backend.aclose()

        asyncio.run(run())
