"""Base class for simulated network entities.

Every node carries an up/down lifecycle so the fault injector
(:mod:`repro.netsim.faults`) can crash and restart infrastructure
mid-run.  A down node neither transmits nor receives; what happens to
its *state* across the outage is the subclass's business, expressed in
``on_crash`` / ``on_recover`` (e.g. a recursive resolver abandons every
in-flight resolution and loses its cache, the DCC shim loses its monitor
and conviction tables -- all of that is process memory in the real
systems the paper measures).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnscore.message import Message
    from repro.netsim.link import Network  # reprolint: disable=R6 -- type-only mutual ref inside netsim; no runtime cycle
    from repro.netsim.sim import Simulator


class Node:
    """Anything with an address that can send and receive DNS messages.

    Subclasses: stub clients, attackers, forwarders, recursive resolvers,
    authoritative servers, and the DCC shim (which interposes between a
    resolver and the network without the resolver noticing -- the paper's
    non-invasive architecture, Figure 5).
    """

    def __init__(self, address: str) -> None:
        self.address = address
        self.network: Optional["Network"] = None
        self.sim: Optional["Simulator"] = None
        #: lifecycle: a down node cannot send or receive messages
        self.up = True
        #: extra lifecycle observers (the DCC shim rides its host's
        #: crashes without subclassing it), fired after on_crash/on_recover
        self.crash_hooks: List[Callable[[], None]] = []
        self.recover_hooks: List[Callable[[], None]] = []
        #: observability facade; the no-op singleton unless a scenario
        #: opts in (see :mod:`repro.obs`)
        self.obs = NULL_OBS

    @property
    def now(self) -> float:
        """The attached clock's time (``AttributeError`` if unattached)."""
        return self.sim.now  # type: ignore[union-attr]

    def send(self, dst: str, message: "Message") -> None:
        assert self.network is not None, f"{self.address} is not attached to a network"
        if not self.up:
            # A stale timer on a crashed node must not leak traffic.
            self.network.stats.messages_dropped_down += 1
            return
        self.network.send(self.address, dst, message)

    def receive(self, message: "Message", src: str) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down, losing whatever state on_crash() says a
        real crash of this entity would lose."""
        if not self.up:
            return
        self.up = False
        self.on_crash()
        for hook in self.crash_hooks:
            hook()

    def recover(self) -> None:
        """Bring the node back up (restart after a crash)."""
        if self.up:
            return
        self.up = True
        self.on_recover()
        for hook in self.recover_hooks:
            hook()

    def on_crash(self) -> None:
        """Subclass hook: drop whatever a process crash would lose."""

    def on_recover(self) -> None:
        """Subclass hook: re-read whatever a restart reloads from disk."""
