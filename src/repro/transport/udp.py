"""Real-socket backend: asyncio UDP (+ one-shot TCP fallback) on localhost.

This module is the only place in the tree allowed to read the wall
clock (reprolint scopes the R1 exemption to exactly this file): it
implements the :class:`repro.transport.base.Clock` protocol over the
asyncio event loop and the :class:`~repro.transport.base.Fabric`
protocol over real ``127.0.0.1`` datagram sockets speaking wire-format
DNS via :mod:`repro.dnscore.wire`.

Everything above it -- resolver, DCC shim, MOPI-FQ, policing, health --
runs unmodified: nodes are attached exactly as they are to the virtual
:class:`~repro.netsim.link.Network`, timers land on
``loop.call_later`` instead of the event heap, and messages take a real
encode -> sendto -> recvfrom -> decode round trip.

Design notes:

- **Addressing.**  Nodes keep their simulation addresses ("10.0.0.53");
  the fabric maps them to ephemeral localhost socket addresses at
  :meth:`UdpFabric.start` and maps inbound packet sources back.  Route
  overrides (:meth:`UdpFabric.set_route`) let the chaos proxy interpose
  on a channel without either endpoint knowing.
- **Message ids.**  Simulation-internal ids are 31-bit; the wire format
  carries 16.  The fabric records ``(receiver, peer, wire_id) ->
  internal_id`` when a query is sent and restores the internal id on
  the matching response, so resolver bookkeeping is oblivious to the
  truncation.
- **TCP fallback.**  A ``via_tcp`` query opens a one-shot RFC 7766
  length-prefixed stream connection; the response returns on the same
  connection and is delivered with ``via_tcp=True``.  The chaos proxy
  does not interpose on TCP (its fault model is datagram loss).
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dnscore.message import Message
from repro.dnscore.wire import WireDecodeError, decode_message, encode_message
from repro.netsim.link import NetworkStats

SockAddr = Tuple[str, int]

#: one-shot TCP exchanges that outlive this are abandoned
TCP_EXCHANGE_TIMEOUT = 5.0
#: wire-id rewrite map size; oldest entries evict first
_WIRE_ID_CAP = 8192


class AsyncioTimer:
    """Cancellable timer handle mirroring :class:`repro.netsim.sim.Event`."""

    __slots__ = ("fn", "args", "cancelled", "fired", "_handle", "_clock")

    def __init__(self, clock: "AsyncioClock", fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._handle: Optional[asyncio.TimerHandle] = None
        self._clock = clock

    def cancel(self) -> None:
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._clock._pending_count -= 1


class AsyncioClock:
    """The :class:`~repro.transport.base.Clock` protocol on the event loop.

    Time is ``loop.time()`` relative to :meth:`start`, so a run begins
    at ``t = 0`` like a simulation does.  RNG streams use the exact
    seeding scheme of :meth:`repro.netsim.sim.Simulator.rng` -- the same
    ``(seed, stream)`` pair yields the same draws on either backend,
    which is what makes chaos schedules and workloads reproducible over
    real sockets.

    ``schedule_at`` *clamps* targets in the past to "now" instead of
    raising: under a real clock the wall can move while the target is
    being computed, which is inherent rather than a caller bug (the DCC
    shim's pump re-arm hits this under load).
    """

    def __init__(self, seed: int = 42) -> None:
        self._seed = seed
        self._rngs: Dict[str, random.Random] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self.events_processed = 0
        self._pending_count = 0
        #: wall-clock timestamp of start(), for report provenance only
        self.wall_start: Optional[float] = None

    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        if self._loop is not None:
            return
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self.wall_start = time.time()

    @property
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

    def rng(self, stream: str) -> random.Random:
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(f"{self._seed}:{stream}")
            self._rngs[stream] = rng
        return rng

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> AsyncioTimer:
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        if self._loop is None:
            raise RuntimeError("AsyncioClock.schedule before start()")
        timer = AsyncioTimer(self, fn, args)
        timer._handle = self._loop.call_later(delay, self._fire, timer)
        self._pending_count += 1
        return timer

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> AsyncioTimer:
        return self.schedule(max(0.0, when - self.now), fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> AsyncioTimer:
        if self._loop is None:
            raise RuntimeError("AsyncioClock.call_soon before start()")
        timer = AsyncioTimer(self, fn, args)
        timer._handle = self._loop.call_soon(self._fire, timer)  # type: ignore[assignment]
        self._pending_count += 1
        return timer

    def _fire(self, timer: AsyncioTimer) -> None:
        if timer.cancelled:
            return
        timer.fired = True
        timer._handle = None  # its args hold the timer: a cycle once fired
        self._pending_count -= 1
        self.events_processed += 1
        # exceptions propagate to the loop's exception handler on purpose
        # (a swallowed handler error is a silent desync -- see rule R9)
        timer.fn(*timer.args)


class _UdpProtocol(asyncio.DatagramProtocol):
    """Per-node datagram endpoint delivering into the fabric."""

    def __init__(self, fabric: "UdpFabric", owner: str) -> None:
        self._fabric = fabric
        self._owner = owner
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: SockAddr) -> None:
        self._fabric._on_datagram(self._owner, data, addr)

    def error_received(self, exc: Exception) -> None:
        self._fabric.stats.extra["socket_errors"] = (
            self._fabric.stats.extra.get("socket_errors", 0) + 1
        )


class UdpFabric:
    """The :class:`~repro.transport.base.Fabric` protocol on real sockets."""

    def __init__(self, clock: AsyncioClock, host: str = "127.0.0.1") -> None:
        self._clock = clock
        self._host = host
        self._nodes: Dict[str, Any] = {}
        self.stats = NetworkStats()
        #: Network-protocol compat; socket faults come from the chaos
        #: proxy, not an in-fabric shaper
        self.fault_shaper = None
        self._udp_transport: Dict[str, asyncio.DatagramTransport] = {}
        self._udp_addr: Dict[str, SockAddr] = {}
        self._tcp_addr: Dict[str, SockAddr] = {}
        self._tcp_servers: Dict[str, asyncio.AbstractServer] = {}
        self._peer: Dict[SockAddr, str] = {}
        self._route: Dict[Tuple[str, str], SockAddr] = {}
        self._tcp_reply: Dict[Tuple[str, int], "asyncio.Future[Message]"] = {}
        self._wire_ids: "OrderedDict[Tuple[str, str, int], int]" = OrderedDict()
        self._tasks: Dict[int, "asyncio.Task[None]"] = {}
        self._task_seq = 0
        self.tcp_errors: List[str] = []
        self._started = False

    # ------------------------------------------------------------------
    # Fabric protocol
    # ------------------------------------------------------------------
    def attach(self, node: Any) -> None:
        if node.address in self._nodes:
            raise ValueError(f"address {node.address} already attached")
        if self._started:
            raise RuntimeError("attach after start() is not supported")
        self._nodes[node.address] = node
        node.network = self
        node.sim = self._clock

    def node(self, address: str) -> Optional[Any]:
        return self._nodes.get(address)

    def send(self, src: str, dst: str, message: Message) -> None:
        self.stats.messages_sent += 1
        if message.via_tcp:
            self._send_tcp(src, dst, message)
            return
        data = encode_message(message)
        if message.is_query:
            self._note_wire_id(src, dst, message.id)
        dest = self._route.get((src, dst))
        if dest is None:
            dest = self._udp_addr.get(dst)
        if dest is None:
            self.stats.messages_unroutable += 1
            return
        self._transmit_datagram(src, data, dest)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind one UDP endpoint + one TCP listener per attached node."""
        if self._started:
            return
        loop = asyncio.get_running_loop()
        self._clock.start(loop)
        for address in sorted(self._nodes):
            transport, _protocol = await loop.create_datagram_endpoint(
                partial(_UdpProtocol, self, address), local_addr=(self._host, 0)
            )
            sockaddr = transport.get_extra_info("sockname")
            self._udp_transport[address] = transport
            self._udp_addr[address] = sockaddr
            self._peer[sockaddr] = address
            server = await asyncio.start_server(
                partial(self._tcp_serve, address), self._host, 0
            )
            self._tcp_servers[address] = server
            self._tcp_addr[address] = server.sockets[0].getsockname()
        self._started = True

    async def aclose(self) -> None:
        for address in sorted(self._udp_transport):
            self._udp_transport[address].close()
        for address in sorted(self._tcp_servers):
            server = self._tcp_servers[address]
            server.close()
            await server.wait_closed()
        live = [task for task in self._tasks.values() if not task.done()]
        for task in live:
            task.cancel()
        if live:
            await asyncio.gather(*live, return_exceptions=True)
        self._tasks.clear()

    def udp_address_if_bound(self, address: str) -> Optional[SockAddr]:
        """The node's current socket address, or None while crashed.

        The chaos proxy resolves destinations through this at forward
        time instead of caching socket addresses, so a crash blackholes
        the channel and a restart (which re-binds to a fresh ephemeral
        port) transparently re-routes it.
        """
        return self._udp_addr.get(address)

    def set_route(self, src: str, dst: str, via: SockAddr) -> None:
        """Divert src->dst datagrams to ``via`` (a proxy's socket)."""
        self._route[(src, dst)] = via

    def register_peer(self, sockaddr: SockAddr, address: str) -> None:
        """Teach receivers that packets from ``sockaddr`` mean ``address``."""
        self._peer[sockaddr] = address

    # ------------------------------------------------------------------
    # supervised node lifecycle (chaos orchestrator)
    # ------------------------------------------------------------------
    def crash_node(self, address: str) -> None:
        """Crash = process death: close sockets, lose all wire state.

        The node's UDP endpoint and TCP listener close, parked TCP reply
        slots it owned are cancelled (the serving coroutine unwinds and
        drops the connection), and its wire-id rewrite entries vanish --
        any response still in flight toward it arrives at a dead socket.
        ``node.crash()`` runs the usual ``on_crash`` state-loss hooks.
        """
        node = self._nodes.get(address)
        if node is None:
            raise KeyError(f"no node at {address}")
        if not node.up:
            return
        node.crash()
        transport = self._udp_transport.pop(address, None)
        if transport is not None and not transport.is_closing():
            transport.close()
        old_addr = self._udp_addr.pop(address, None)
        if old_addr is not None:
            self._peer.pop(old_addr, None)
        server = self._tcp_servers.pop(address, None)
        if server is not None:
            server.close()
        self._tcp_addr.pop(address, None)
        for key in [k for k in self._tcp_reply if k[0] == address]:
            slot = self._tcp_reply.pop(key)
            if not slot.done():
                slot.cancel()
        for key in [k for k in self._wire_ids if k[0] == address]:
            del self._wire_ids[key]
        self.stats.extra["node_crashes"] = self.stats.extra.get("node_crashes", 0) + 1

    def restart_node(self, address: str) -> None:
        """Restart a crashed node: re-bind fresh sockets, then recover.

        Safe to call from a clock callback; the re-bind itself is async
        (socket creation awaits the loop), so ``node.up`` flips only
        once the new endpoints exist.  The node restarts with whatever
        state its ``on_recover`` hook rebuilds -- in-flight queries from
        before the crash are gone, exactly like a process restart.
        """
        node = self._nodes.get(address)
        if node is None:
            raise KeyError(f"no node at {address}")
        if node.up:
            return
        self._spawn(self._rebind_node(address))

    async def _rebind_node(self, address: str) -> None:
        loop = asyncio.get_running_loop()
        transport, _protocol = await loop.create_datagram_endpoint(
            partial(_UdpProtocol, self, address), local_addr=(self._host, 0)
        )
        sockaddr = transport.get_extra_info("sockname")
        self._udp_transport[address] = transport
        self._udp_addr[address] = sockaddr
        self._peer[sockaddr] = address
        server = await asyncio.start_server(
            partial(self._tcp_serve, address), self._host, 0
        )
        self._tcp_servers[address] = server
        self._tcp_addr[address] = server.sockets[0].getsockname()
        node = self._nodes.get(address)
        if node is not None and not node.up:
            node.recover()
        self.stats.extra["node_restarts"] = self.stats.extra.get("node_restarts", 0) + 1

    # ------------------------------------------------------------------
    # datagram path
    # ------------------------------------------------------------------
    def _transmit_datagram(self, src: str, data: bytes, dest: SockAddr) -> None:
        transport = self._udp_transport.get(src)
        if transport is None or transport.is_closing():
            self.stats.messages_unroutable += 1
            return
        transport.sendto(data, dest)
        self.stats.bytes_sent += len(data)

    def _note_wire_id(self, src: str, dst: str, internal_id: int) -> None:
        # the *response* will arrive at src, from dst, under the 16-bit id
        self._wire_ids[(src, dst, internal_id & 0xFFFF)] = internal_id
        while len(self._wire_ids) > _WIRE_ID_CAP:
            self._wire_ids.popitem(last=False)

    def _on_datagram(self, owner: str, data: bytes, addr: SockAddr) -> None:
        try:
            message = decode_message(data)
        except WireDecodeError:
            self.stats.decode_errors += 1
            return
        src = self._peer.get(addr, "?")
        if message.is_response:
            internal = self._wire_ids.get((owner, src, message.id))
            if internal is not None:
                message.id = internal
        node = self._nodes.get(owner)
        if node is None:
            self.stats.messages_unroutable += 1
            return
        if not node.up:
            self.stats.messages_dropped_down += 1
            return
        self.stats.messages_delivered += 1
        node.receive(message, src)

    # ------------------------------------------------------------------
    # TCP fallback path (one-shot RFC 7766 exchanges)
    # ------------------------------------------------------------------
    def _send_tcp(self, src: str, dst: str, message: Message) -> None:
        slot = self._tcp_reply.get((src, message.id))
        if slot is not None:
            # a response to a TCP query we are currently serving: hand it
            # back to the waiting connection instead of opening a new one
            self._tcp_reply.pop((src, message.id))
            if not slot.done():
                slot.set_result(message)
            self.stats.tcp_responses += 1
            return
        self.stats.tcp_queries += 1
        self._spawn(self._tcp_exchange(src, dst, message))

    def _spawn(self, coro: Any) -> None:
        loop = asyncio.get_running_loop()
        self._task_seq += 1
        seq = self._task_seq
        task = loop.create_task(coro)
        self._tasks[seq] = task
        task.add_done_callback(partial(self._task_done, seq))

    def _task_done(self, seq: int, task: "asyncio.Task[None]") -> None:
        self._tasks.pop(seq, None)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.tcp_errors.append(f"{type(exc).__name__}: {exc}")

    async def _tcp_exchange(self, src: str, dst: str, message: Message) -> None:
        dest = self._tcp_addr.get(dst)
        if dest is None:
            self.stats.messages_unroutable += 1
            return
        data = encode_message(message)
        self._note_wire_id(src, dst, message.id)
        try:
            reader, writer = await asyncio.open_connection(dest[0], dest[1])
        except OSError:
            self.stats.extra["tcp_connect_failed"] = (
                self.stats.extra.get("tcp_connect_failed", 0) + 1
            )
            return
        try:
            # register our ephemeral port before any bytes hit the wire so
            # the server side can attribute the connection to `src`
            self._peer[writer.get_extra_info("sockname")] = src
            writer.write(len(data).to_bytes(2, "big") + data)
            await writer.drain()
            self.stats.bytes_sent += len(data) + 2
            raw = await asyncio.wait_for(_read_frame(reader), TCP_EXCHANGE_TIMEOUT)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            self.stats.extra["tcp_exchange_failed"] = (
                self.stats.extra.get("tcp_exchange_failed", 0) + 1
            )
            return
        finally:
            writer.close()
        try:
            response = decode_message(raw)
        except WireDecodeError:
            self.stats.decode_errors += 1
            return
        response.via_tcp = True
        internal = self._wire_ids.get((src, dst, response.id))
        if internal is not None:
            response.id = internal
        node = self._nodes.get(src)
        if node is None or not node.up:
            self.stats.messages_dropped_down += 1
            return
        self.stats.messages_delivered += 1
        self.stats.tcp_responses += 1
        node.receive(response, dst)

    async def _tcp_serve(
        self, owner: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            raw = await asyncio.wait_for(_read_frame(reader), TCP_EXCHANGE_TIMEOUT)
            query = decode_message(raw)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            writer.close()
            return
        except WireDecodeError:
            self.stats.decode_errors += 1
            writer.close()
            return
        query.via_tcp = True
        src = self._peer.get(writer.get_extra_info("peername"), "?")
        node = self._nodes.get(owner)
        if node is None or not node.up:
            self.stats.messages_dropped_down += 1
            writer.close()
            return
        loop = asyncio.get_running_loop()
        slot: "asyncio.Future[Message]" = loop.create_future()
        self._tcp_reply[(owner, query.id)] = slot
        self.stats.messages_delivered += 1
        node.receive(query, src)
        try:
            response = await asyncio.wait_for(slot, TCP_EXCHANGE_TIMEOUT)
            data = encode_message(response)
            writer.write(len(data).to_bytes(2, "big") + data)
            await writer.drain()
            self.stats.bytes_sent += len(data) + 2
        except (OSError, asyncio.TimeoutError):
            self.stats.extra["tcp_serve_failed"] = (
                self.stats.extra.get("tcp_serve_failed", 0) + 1
            )
        finally:
            self._tcp_reply.pop((owner, query.id), None)
            writer.close()


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    header = await reader.readexactly(2)
    return await reader.readexactly(int.from_bytes(header, "big"))


class UdpBackend:
    """Convenience bundle: an :class:`AsyncioClock` plus :class:`UdpFabric`."""

    def __init__(self, seed: int = 42, host: str = "127.0.0.1") -> None:
        self._clock = AsyncioClock(seed)
        self._fabric = UdpFabric(self._clock, host)

    @property
    def clock(self) -> AsyncioClock:
        return self._clock

    @property
    def fabric(self) -> UdpFabric:
        return self._fabric

    def attach(self, node: Any) -> None:
        self._fabric.attach(node)

    async def start(self) -> None:
        await self._fabric.start()

    async def aclose(self) -> None:
        await self._fabric.aclose()
