"""Fault-injecting UDP proxy: the socket analogue of ``netsim/faults``.

The virtual backend injects loss/jitter inside the fabric itself
(:class:`repro.netsim.faults.LinkDegradation`); on real sockets the
equivalent is a man-in-the-middle datagram proxy.  A
:class:`ChaosProxy` interposes on one fabric channel (say resolver <->
authoritative) by claiming the route in both directions; neither
endpoint's code knows it is there, exactly like a lossy path in
production.

**Determinism.**  Acceptance requires two same-seed runs to report
identical application-layer counts, but real sockets do not deliver
packets in a reproducible order -- so fault decisions must not depend
on packet *arrival order*.  Each datagram's fate is instead a pure
function of ``(seed, direction, DNS question, per-question occurrence
number)``, hashed through SHA-256: the n-th packet carrying a given
qname always gets the same verdict regardless of how flows interleave
on the wire.  (Queries with unique qnames -- the norm for cache-miss
workloads and NX floods -- therefore see i.i.d.-looking but fully
reproducible loss.)

Fault model per datagram: independent **drop**, **duplicate** (the
copy is sent after an extra deterministic delay), and **delay**
(uniform in ``[delay_min, delay_max]``); delaying some packets and not
others is also how *reordering* arises, as it does on real paths.  TC
fallback traffic is TCP and intentionally bypasses the proxy.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.dnscore.wire import WireDecodeError, decode_message
from repro.transport.udp import AsyncioClock, SockAddr, UdpFabric


@dataclass(frozen=True)
class ChaosSpec:
    """Per-datagram fault probabilities for one proxied channel."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay_prob: float = 0.0
    delay_min: float = 0.0
    delay_max: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError(
                f"bad delay range [{self.delay_min}, {self.delay_max}]"
            )


@dataclass(frozen=True)
class FaultDecision:
    drop: bool
    duplicate: bool
    delay: float
    duplicate_delay: float


@dataclass
class ChaosStats:
    received: int = 0
    forwarded: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    undecodable: int = 0
    #: forwards abandoned because the destination node was crashed
    unroutable: int = 0
    per_direction: Dict[str, int] = field(default_factory=dict)


class FaultSchedule:
    """Order-independent seeded fault decisions (see module docstring).

    The spec may be swapped mid-run (:meth:`set_spec`) -- that is how
    the chaos orchestrator drives degradation ramps and partitions:
    occurrence counters persist across swaps, so a datagram's hash
    material never depends on *when* the spec changed, only the
    probabilities it is tested against do.
    """

    def __init__(self, seed: int, spec: ChaosSpec) -> None:
        self._seed = seed
        self._default = spec
        self._overrides: Dict[str, ChaosSpec] = {}
        self._occurrence: Dict[Tuple[str, str], int] = {}

    def set_spec(self, spec: ChaosSpec, direction: Optional[str] = None) -> None:
        """Swap fault probabilities; ``direction=None`` sets the default."""
        if direction is None:
            self._default = spec
        else:
            self._overrides[direction] = spec

    def spec_for(self, direction: str) -> ChaosSpec:
        return self._overrides.get(direction, self._default)

    def decide(self, direction: str, key: str) -> FaultDecision:
        """The fate of the next datagram with ``key`` in ``direction``."""
        occ_key = (direction, key)
        occurrence = self._occurrence.get(occ_key, 0)
        self._occurrence[occ_key] = occurrence + 1
        return self.peek(direction, key, occurrence)

    def peek(self, direction: str, key: str, occurrence: int) -> FaultDecision:
        """Pure decision function; ``decide`` = ``peek`` + counter bump."""
        material = f"{self._seed}|{direction}|{key}|{occurrence}".encode()
        digest = hashlib.sha256(material).digest()
        u_drop = int.from_bytes(digest[0:8], "big") / 2**64
        u_dup = int.from_bytes(digest[8:16], "big") / 2**64
        u_delay = int.from_bytes(digest[16:24], "big") / 2**64
        u_amount = int.from_bytes(digest[24:32], "big") / 2**64
        spec = self.spec_for(direction)
        delay = 0.0
        if u_delay < spec.delay_prob:
            delay = spec.delay_min + u_amount * (spec.delay_max - spec.delay_min)
        return FaultDecision(
            drop=u_drop < spec.drop,
            duplicate=u_dup < spec.duplicate,
            delay=delay,
            # the duplicate trails the original by a deterministic extra
            # hop so the pair arrives reordered at least sometimes
            duplicate_delay=delay + 0.001 + u_amount * 0.004,
        )


class _RelayProtocol(asyncio.DatagramProtocol):
    """One direction of the proxy: receive, decide, (maybe) forward."""

    def __init__(self, proxy: "ChaosProxy", direction: str) -> None:
        self._proxy = proxy
        self._direction = direction
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: SockAddr) -> None:
        self._proxy._on_datagram(self._direction, data)


class ChaosProxy:
    """Interpose seeded faults on one bidirectional fabric channel.

    Call :meth:`start` after ``fabric.start()``: it binds one relay
    socket per direction, diverts the fabric's ``a -> b`` and ``b -> a``
    routes through them, and registers the relay sockets as aliases so
    each endpoint still attributes traffic to its true peer.
    """

    def __init__(
        self,
        fabric: UdpFabric,
        clock: AsyncioClock,
        a: str,
        b: str,
        spec: ChaosSpec,
        seed: int,
    ) -> None:
        self._fabric = fabric
        self._clock = clock
        self._a = a
        self._b = b
        self._schedule = FaultSchedule(seed, spec)
        self.stats = ChaosStats()
        self._relay: Dict[str, asyncio.DatagramTransport] = {}
        #: direction label -> the *fabric address* packets forward to;
        #: resolved to a socket address lazily at forward time, so a
        #: crashed node blackholes and a restarted one re-routes without
        #: the proxy being told
        self._dest_node: Dict[str, str] = {self._fwd_label(a, b): b,
                                           self._fwd_label(b, a): a}
        self._fwd = self._fwd_label(a, b)
        self._rev = self._fwd_label(b, a)

    @staticmethod
    def _fwd_label(src: str, dst: str) -> str:
        return f"{src}>{dst}"

    def direction(self, src: str, dst: str) -> str:
        """The direction label for ``src -> dst`` on this channel."""
        label = self._fwd_label(src, dst)
        if label not in self._dest_node:
            raise KeyError(f"{src}->{dst} is not on channel {self._a}<->{self._b}")
        return label

    def set_spec(self, spec: ChaosSpec, direction: Optional[str] = None) -> None:
        """Swap the fault spec mid-run; occurrence counters persist."""
        self._schedule.set_spec(spec, direction)

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for direction, src, dst in (
            (self._fwd, self._a, self._b),
            (self._rev, self._b, self._a),
        ):
            transport, _protocol = await loop.create_datagram_endpoint(
                partial(_RelayProtocol, self, direction), local_addr=("127.0.0.1", 0)
            )
            sockaddr = transport.get_extra_info("sockname")
            self._relay[direction] = transport
            self._fabric.set_route(src, dst, sockaddr)
            # the receiver sees the relay's sockaddr; keep attribution on
            # the true sender
            self._fabric.register_peer(sockaddr, src)

    def close(self) -> None:
        for direction in sorted(self._relay):
            self._relay[direction].close()

    # ------------------------------------------------------------------
    # datagram path
    # ------------------------------------------------------------------
    def _on_datagram(self, direction: str, data: bytes) -> None:
        self.stats.received += 1
        self.stats.per_direction[direction] = self.stats.per_direction.get(direction, 0) + 1
        decision = self._schedule.decide(direction, self._key(data))
        if decision.drop:
            self.stats.dropped += 1
            return
        if decision.delay > 0:
            self.stats.delayed += 1
            self._clock.schedule(decision.delay, self._forward, direction, data)
        else:
            self._forward(direction, data)
        if decision.duplicate:
            self.stats.duplicated += 1
            self._clock.schedule(decision.duplicate_delay, self._forward, direction, data)

    def _key(self, data: bytes) -> str:
        try:
            message = decode_message(data)
        except WireDecodeError:
            self.stats.undecodable += 1
            return f"raw:{hashlib.sha256(data).hexdigest()[:16]}"
        return f"{message.question.name}/{int(message.question.rrtype)}"

    def _forward(self, direction: str, data: bytes) -> None:
        transport = self._relay.get(direction)
        if transport is None or transport.is_closing():
            return
        dest = self._fabric.udp_address_if_bound(self._dest_node[direction])
        if dest is None:
            # the destination node is crashed (socket closed): the
            # packet blackholes, exactly as it would on the real path
            self.stats.unroutable += 1
            return
        transport.sendto(data, dest)
        self.stats.forwarded += 1
