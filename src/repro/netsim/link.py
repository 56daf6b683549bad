"""Message delivery between nodes.

The :class:`Network` plays the role of the Internet between the paper's
DigitalOcean data centers: it knows every node by address and delivers
DNS messages with configurable one-way latency, jitter, and loss.  DNS
over UDP is connectionless, so an unknown destination or a lossy link
simply swallows the message -- timeouts and retries are the endpoints'
problem, exactly as in the real system (and the retry behaviour is part
of what makes adversarial congestion bite, cf. Figure 4b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnscore.message import Message
    from repro.netsim.node import Node  # reprolint: disable=R6 -- type-only mutual ref inside netsim; no runtime cycle
    from repro.netsim.sim import Simulator


@dataclass
class LinkSpec:
    """Delivery characteristics for one (src, dst) direction."""

    latency: float = 0.0005  # one-way, seconds (paper reports ~1 ms RTT)
    jitter: float = 0.0
    loss: float = 0.0


@dataclass
class NetworkStats:
    """Aggregate fabric counters, of the simulated network and of the
    live :class:`~repro.transport.udp.UdpFabric` alike; the socket-path
    counters stay zero in the simulator."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    messages_unroutable: int = 0
    #: dropped because an endpoint was crashed (node down)
    messages_dropped_down: int = 0
    #: severed mid-air by an active partition fault
    messages_cut: int = 0
    # socket path only
    #: octets the fabric wrote to its sockets (TCP frames count their 2-octet prefix)
    bytes_sent: int = 0
    decode_errors: int = 0
    tcp_queries: int = 0
    tcp_responses: int = 0
    #: rarer socket-path events by name (socket and TCP failures, node crashes and restarts)
    extra: Dict[str, int] = field(default_factory=dict)


class Network:
    """Address-indexed message fabric with per-pair link specs."""

    def __init__(self, sim: "Simulator", default_link: Optional[LinkSpec] = None) -> None:
        self.sim = sim
        self.default_link = default_link or LinkSpec()
        self._nodes: Dict[str, "Node"] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self.stats = NetworkStats()
        #: fault-injection tap: may degrade the effective LinkSpec for one
        #: transmission or sever it entirely (returning None).  Installed
        #: by :class:`repro.netsim.faults.FaultInjector`.
        self.fault_shaper: Optional[
            Callable[[str, str, LinkSpec], Optional[LinkSpec]]
        ] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, node: "Node") -> None:
        if node.address in self._nodes:
            raise ValueError(f"address {node.address} already attached")
        self._nodes[node.address] = node
        node.network = self
        node.sim = self.sim

    def detach(self, address: str) -> None:
        node = self._nodes.pop(address, None)
        if node is not None:
            # Clear the back-references, or the detached node could keep
            # transmitting through a fabric it no longer belongs to.
            node.network = None
            node.sim = None

    def node(self, address: str) -> Optional["Node"]:
        return self._nodes.get(address)

    def set_link(self, src: str, dst: str, spec: LinkSpec, symmetric: bool = True) -> None:
        self._links[(src, dst)] = spec
        if symmetric:
            self._links[(dst, src)] = spec

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: "Message") -> None:
        """Fire-and-forget datagram semantics."""
        self.stats.messages_sent += 1
        spec = self._links.get((src, dst), self.default_link)
        if self.fault_shaper is not None:
            spec = self.fault_shaper(src, dst, spec)
            if spec is None:  # severed by an active partition
                self.stats.messages_cut += 1
                return
        if spec.loss > 0 and self.sim.rng("network.loss").random() < spec.loss:
            self.stats.messages_lost += 1
            return
        delay = spec.latency
        if spec.jitter > 0:
            delay += self.sim.rng("network.jitter").uniform(0, spec.jitter)
        sim = self.sim
        sim.schedule_at(sim.now + delay, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: "Message") -> None:
        node = self._nodes.get(dst)
        if node is None:
            self.stats.messages_unroutable += 1
            return
        if not node.up:
            # Datagrams to a crashed host vanish; the sender's timers
            # discover the outage, exactly like UDP to a dead server.
            self.stats.messages_dropped_down += 1
            return
        self.stats.messages_delivered += 1
        node.receive(message, src)
