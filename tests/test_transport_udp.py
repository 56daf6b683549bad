"""The asyncio UDP backend over real localhost sockets.

These tests bind actual datagram/stream sockets on 127.0.0.1 and push
wire-format DNS through them; each one runs inside ``asyncio.run`` so
no event-loop plugin is needed.
"""

import asyncio
import socket

import pytest

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.sim import Simulator
from repro.server.authoritative import AuthoritativeServer
from repro.transport.base import Clock, Fabric
from repro.transport.engine import EngineClient, EngineConfig
from repro.transport.chaosproxy import ChaosProxy, ChaosSpec
from repro.transport.udp import AsyncioClock, UdpBackend, UdpFabric
from repro.workloads.zonegen import build_target_zone

from tests.conftest import Collector
from tests.test_truncation import add_fat_rrset

AUTH = "10.0.0.2"
CLIENT = "10.1.0.1"


async def _wait_until(predicate, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not met before timeout")
        await asyncio.sleep(0.01)


def _backend(seed: int = 1, payload_limit=None):
    backend = UdpBackend(seed=seed)
    zone = build_target_zone("target-domain.", "ns1", AUTH)
    auth = AuthoritativeServer(AUTH, zones=[zone], udp_payload_limit=payload_limit)
    client = Collector(CLIENT)
    backend.attach(auth)
    backend.attach(client)
    return backend, auth, client


class TestAsyncioClock:
    def test_rng_streams_match_simulator(self):
        sim = Simulator(seed=11)
        clock = AsyncioClock(seed=11)
        for stream in ("a", "chaos", "client.x.gaps"):
            want = [sim.rng(stream).random() for _ in range(5)]
            got = [clock.rng(stream).random() for _ in range(5)]
            assert got == want

    def test_protocol_conformance(self):
        assert isinstance(AsyncioClock(seed=1), Clock)

    def test_schedule_before_start_raises(self):
        clock = AsyncioClock(seed=1)
        with pytest.raises(RuntimeError):
            clock.schedule(0.0, list)

    def test_negative_delay_raises(self):
        async def run():
            clock = AsyncioClock(seed=1)
            clock.start()
            with pytest.raises(ValueError):
                clock.schedule(-0.1, list)

        asyncio.run(run())

    def test_schedule_at_clamps_past_targets(self):
        # unlike the virtual simulator, a real clock treats a target in
        # the past as "fire now" (documented Clock-protocol divergence)
        async def run():
            clock = AsyncioClock(seed=1)
            clock.start()
            fired = []
            clock.schedule_at(clock.now - 10.0, fired.append, "x")
            await _wait_until(lambda: fired == ["x"], timeout=2.0)

        asyncio.run(run())

    def test_cancelled_timer_never_fires(self):
        async def run():
            clock = AsyncioClock(seed=1)
            clock.start()
            fired = []
            timer = clock.schedule(0.02, fired.append, "x")
            timer.cancel()
            assert clock._pending_count == 0
            await asyncio.sleep(0.05)
            assert fired == []

        asyncio.run(run())

    def test_timers_leave_nothing_for_the_cyclic_collector(self):
        """``timer._handle`` <-> the loop handle's args (the timer) is a
        cycle; cancel and fire both break it."""
        import gc

        async def run():
            clock = AsyncioClock(seed=1)
            clock.start()
            fired = []
            gc.collect()
            gc.disable()
            try:
                for i in range(50):
                    clock.schedule(0.001, fired.append, i)
                    clock.call_soon(fired.append, -i)
                    clock.schedule(5.0, fired.append, "never").cancel()
                cancelled = clock.schedule(5.0, fired.append, "never")
                cancelled.cancel()
                late = clock.schedule(0.001, fired.append, "late")
                await asyncio.sleep(0.05)
                assert len(fired) == 101 and clock._pending_count == 0
                assert cancelled._handle is None and late._handle is None and late.fired
                del cancelled, late
                assert gc.collect() == 0
            finally:
                gc.enable()

        asyncio.run(run())


class TestUdpFabric:
    def test_udp_query_round_trip(self):
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                query = client.query(AUTH, "a.wc.target-domain.")
                await _wait_until(lambda: client.response_to(query) is not None)
                response = client.response_to(query)
                assert response.answers
                assert auth.stats.queries_received == 1
                assert backend.fabric.stats.messages_delivered >= 2
                assert backend.fabric.stats.decode_errors == 0
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_wide_internal_id_survives_16bit_wire(self):
        # internal message ids are 31-bit; the wire carries 16.  The
        # fabric must restore the internal id on the response or the
        # sender's bookkeeping can never match it.
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                query = Message.query(
                    Name.from_text("a.wc.target-domain."), RRType.A, msg_id=0x1234_5678
                )
                client.send(AUTH, query)
                await _wait_until(lambda: client.response_to(query) is not None)
                assert client.response_to(query).id == 0x1234_5678
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_attach_after_start_rejected(self):
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                with pytest.raises(RuntimeError):
                    backend.attach(Collector("10.1.0.2"))
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_fabric_satisfies_protocol(self):
        backend, auth, client = _backend()
        assert isinstance(backend.fabric, Fabric)
        assert backend.fabric.node(AUTH) is auth

    def test_crash_restart_round_trip(self):
        # supervised lifecycle: crash closes the sockets (queries
        # blackhole), restart re-binds fresh ports and service resumes
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                first = client.query(AUTH, "up1.wc.target-domain.")
                await _wait_until(lambda: client.response_to(first) is not None)
                old_addr = backend.fabric.udp_address_if_bound(AUTH)
                assert old_addr is not None

                backend.fabric.crash_node(AUTH)
                assert auth.up is False
                assert backend.fabric.udp_address_if_bound(AUTH) is None
                dark = client.query(AUTH, "dark.wc.target-domain.")
                await asyncio.sleep(0.1)
                assert client.response_to(dark) is None

                backend.fabric.restart_node(AUTH)
                await _wait_until(lambda: auth.up)
                new_addr = backend.fabric.udp_address_if_bound(AUTH)
                assert new_addr is not None and new_addr != old_addr
                second = client.query(AUTH, "up2.wc.target-domain.")
                await _wait_until(lambda: client.response_to(second) is not None)
                assert backend.fabric.stats.extra.get("node_restarts") == 1
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_crash_and_restart_are_idempotent(self):
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                backend.fabric.crash_node(AUTH)
                backend.fabric.crash_node(AUTH)   # already down: no-op
                backend.fabric.restart_node(AUTH)
                await _wait_until(lambda: auth.up)
                backend.fabric.restart_node(AUTH)  # already up: no-op
                await asyncio.sleep(0.05)
                assert backend.fabric.stats.extra.get("node_restarts") == 1
                with pytest.raises(KeyError):
                    backend.fabric.crash_node("10.9.9.9")
            finally:
                await backend.aclose()

        asyncio.run(run())


#: a well-formed header and question whose QNAME is five 63-octet labels:
#: 321 octets where RFC 1035 allows 255 (12 + 321 + 4 bytes of datagram)
OVERLONG_NAME_DATAGRAM = (
    b"\x00\x01\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00" + (b"\x3f" + b"a" * 63) * 5 + b"\x00" + b"\x00\x01\x00\x01"
)


class TestHostileDatagrams:
    """Nothing a peer sends may raise out of the protocol callback (the
    ROADMAP north star's correctness aim: unbreakable at its edges).
    The transport catches ``WireDecodeError``; the decoder used to let
    ``NameTooLong`` -- a ``FormError`` that is not one -- out for this
    datagram."""

    def test_overlong_name_is_counted_not_raised(self):
        assert len(OVERLONG_NAME_DATAGRAM) == 12 + 321 + 4
        fabric = UdpFabric(AsyncioClock(seed=1))
        client = Collector(CLIENT)
        fabric.attach(client)
        fabric._on_datagram(CLIENT, OVERLONG_NAME_DATAGRAM, ("127.0.0.1", 5353))
        assert fabric.stats.decode_errors == 1
        assert fabric.stats.messages_delivered == 0
        assert client.responses == []

    def test_chaos_proxy_keys_it_as_raw_bytes(self):
        clock = AsyncioClock(seed=1)
        proxy = ChaosProxy(UdpFabric(clock), clock, CLIENT, AUTH, ChaosSpec(), seed=1)
        assert proxy._key(OVERLONG_NAME_DATAGRAM).startswith("raw:")
        assert proxy.stats.undecodable == 1

    def test_over_a_real_socket_the_server_keeps_serving(self):
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context))
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                    peer.sendto(OVERLONG_NAME_DATAGRAM, backend.fabric.udp_address_if_bound(AUTH))
                await _wait_until(lambda: backend.fabric.stats.decode_errors == 1 or loop_errors)
                assert loop_errors == []
                assert auth.stats.queries_received == 0
                query = client.query(AUTH, "a.wc.target-domain.")
                await _wait_until(lambda: client.response_to(query) is not None)
                assert backend.fabric.stats.decode_errors == 1
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_over_tcp_the_frame_is_counted_and_the_connection_closed(self):
        backend, auth, client = _backend()

        async def run():
            await backend.start()
            try:
                host, port = backend.fabric._tcp_addr[AUTH]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(len(OVERLONG_NAME_DATAGRAM).to_bytes(2, "big") + OVERLONG_NAME_DATAGRAM)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed, nothing sent back
                writer.close()
                assert backend.fabric.stats.decode_errors == 1
                assert backend.fabric.tcp_errors == []
                assert auth.stats.queries_received == 0
            finally:
                await backend.aclose()

        asyncio.run(run())


class TestTcpFallback:
    def test_via_tcp_query_gets_full_answer(self):
        backend, auth, client = _backend(payload_limit=512)
        add_fat_rrset(auth.zone_for(Name.from_text("target-domain.")))

        async def run():
            await backend.start()
            try:
                udp_query = client.query(AUTH, "fat.target-domain.")
                await _wait_until(lambda: client.response_to(udp_query) is not None)
                assert client.response_to(udp_query).is_truncated

                tcp_query = Message.query(Name.from_text("fat.target-domain."), RRType.A)
                tcp_query.via_tcp = True
                client.send(AUTH, tcp_query)
                await _wait_until(lambda: client.response_to(tcp_query) is not None)
                response = client.response_to(tcp_query)
                assert response.via_tcp
                assert not response.is_truncated
                assert len(response.answers[0]) == 60
                assert backend.fabric.stats.tcp_queries == 1
                assert backend.fabric.stats.tcp_responses >= 1
                assert backend.fabric.tcp_errors == []
            finally:
                await backend.aclose()

        asyncio.run(run())

    def test_engine_tc_fallback_end_to_end_over_sockets(self):
        # truncated UDP answer -> engine retries over TCP -> full answer;
        # the exact machinery the live smoke relies on, in one test
        backend, auth, _ = _backend(payload_limit=512)
        add_fat_rrset(auth.zone_for(Name.from_text("target-domain.")))
        engine_client = EngineClient(
            "10.1.0.9",
            resolver=AUTH,
            make_name=lambda i: Name.from_text("fat.target-domain."),
            rate=100.0,
            total=1,
            config=EngineConfig(deadline=5.0),
        )
        backend.attach(engine_client)

        async def run():
            await backend.start()
            engine_client.start()
            try:
                await _wait_until(lambda: engine_client.finished)
                assert engine_client.verdicts == {"answered": 1}
                assert engine_client.engine.stats.tc_fallbacks == 1
                assert engine_client.engine.liveness_violations() == []
            finally:
                await backend.aclose()

        asyncio.run(run())
