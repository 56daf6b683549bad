"""Backend-neutral transport protocols and the bounded in-flight table.

Two small structural protocols describe everything the resolver, the
DCC shim, and the query engine need from a backend:

- :class:`Clock` -- virtual or real time plus deterministic timers and
  named seeded RNG streams.  :class:`repro.netsim.sim.Simulator`
  satisfies it as-is; :class:`repro.transport.udp.AsyncioClock` is the
  real-time twin.
- :class:`Fabric` -- the message plane (`attach`/`send`/`node`/`stats`).
  :class:`repro.netsim.link.Network` satisfies it as-is;
  :class:`repro.transport.udp.UdpFabric` moves the same
  :class:`~repro.dnscore.message.Message` objects over real localhost
  datagrams via the wire codec.

Nothing in ``repro.server`` or ``repro.dcc`` imports this module: those
layers stay backend-blind and the protocols here are checked
structurally (``@runtime_checkable``), not by inheritance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Protocol,
    TypeVar,
    runtime_checkable,
)


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled exactly once."""

    def cancel(self) -> None:
        ...


@runtime_checkable
class Clock(Protocol):
    """Time, timers, and seeded randomness -- the ``sim`` duck type.

    ``schedule_at`` differs between backends in one documented way: the
    virtual simulator raises on times in the past (a past event is a
    logic bug under virtual time), while a real-time clock *clamps* to
    "now" (the wall moved while we computed the target -- inherent, not
    a bug).  Callers that run on both backends must treat past targets
    as "fire immediately", which every in-tree caller already does.
    """

    @property
    def now(self) -> float:
        ...

    def rng(self, stream: str) -> random.Random:
        ...

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        ...

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        ...

    def call_soon(self, fn: Callable[..., None], *args: Any) -> TimerHandle:
        ...


@runtime_checkable
class Fabric(Protocol):
    """The message plane connecting :class:`repro.netsim.node.Node`s."""

    def attach(self, node: Any) -> None:
        ...

    def node(self, address: str) -> Optional[Any]:
        ...

    def send(self, src: str, dst: str, message: Any) -> None:
        ...


class TransportBackend(Protocol):
    """A (clock, fabric) pair plus lifecycle -- what experiments hold."""

    @property
    def clock(self) -> Clock:
        ...

    @property
    def fabric(self) -> Fabric:
        ...


E = TypeVar("E")


@dataclass
class InflightStats:
    """Counters for the bounded in-flight table (graceful degradation)."""

    inserted: int = 0
    completed: int = 0
    shed_capacity: int = 0
    liveness_violations: int = 0
    high_watermark: int = 0


@dataclass
class InflightEntry(Generic[E]):
    """One outstanding query: its deadline plus caller payload."""

    key: int
    deadline: float
    added_at: float
    payload: E
    resolved: bool = False


class InflightTable(Generic[E]):
    """Bounded table of outstanding queries with oldest-first shedding.

    The paper's shim is a middlebox: under backpressure it must degrade
    gracefully rather than grow without bound.  This table enforces a
    hard capacity -- inserting into a full table evicts the *oldest*
    entries (they are the closest to their deadline and the least worth
    completing) and returns them so the caller can cancel timers and
    report a shed verdict.

    It also carries the liveness oracle the acceptance criteria demand:
    :meth:`overdue` returns every entry that has outlived its deadline
    by more than ``grace`` without being resolved -- a non-empty answer
    at harvest time means some query silently hung, which is a bug in
    whichever backend was driving the table.
    """

    def __init__(self, capacity: int, stats: Optional[InflightStats] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else InflightStats()
        # An entry stays under the key it was inserted with, so dict order
        # is age order across retransmits too: FIFO eviction without a
        # heap.  A rekeyed entry's current key maps to that first key in
        # _alias, which stays empty in a table that never rekeys.
        self._entries: Dict[int, InflightEntry[E]] = {}
        self._alias: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def get(self, key: int) -> Optional[InflightEntry[E]]:
        entry = self._entries.get(self._alias.get(key, key) if self._alias else key)
        # a first key whose entry moved on is no longer a live key
        return entry if entry is not None and entry.key == key else None

    def _pop(self, first_key: int) -> InflightEntry[E]:
        entry = self._entries.pop(first_key)
        if self._alias:
            self._alias.pop(entry.key, None)
        return entry

    def insert(
        self, key: int, deadline: float, now: float, payload: E
    ) -> List[InflightEntry[E]]:
        """Add an entry; returns the entries shed to make room (oldest first).

        A rekeyed entry's first key stays taken until the entry leaves.
        """
        if key in self._entries or key in self._alias:
            raise KeyError(f"in-flight key {key} already present")
        shed: List[InflightEntry[E]] = []
        while len(self._entries) >= self.capacity:
            shed.append(self._pop(next(iter(self._entries))))
            self.stats.shed_capacity += 1
        self._entries[key] = InflightEntry(key, deadline, now, payload)
        self.stats.inserted += 1
        if len(self._entries) > self.stats.high_watermark:
            self.stats.high_watermark = len(self._entries)
        return shed

    def rekey(self, old_key: int, new_key: int) -> InflightEntry[E]:
        """Give an entry a new key (retransmit with a fresh message id); it
        keeps its place in the shedding order."""
        entry = self.get(old_key)
        if entry is None:
            raise KeyError(f"in-flight key {old_key} not present")
        first_key = self._alias.get(old_key, old_key)
        if new_key != first_key and (new_key in self._entries or new_key in self._alias):
            raise KeyError(f"in-flight key {new_key} already present")
        self._alias.pop(old_key, None)
        if new_key != first_key:
            self._alias[new_key] = first_key
        entry.key = new_key
        return entry

    def complete(self, key: int) -> Optional[InflightEntry[E]]:
        """Remove and return the entry, or None if already gone (late answer)."""
        entry = self.get(key)
        if entry is not None:
            self._pop(self._alias.get(key, key) if self._alias else key)
            entry.resolved = True
            self.stats.completed += 1
        return entry

    def overdue(self, now: float, grace: float = 1.0) -> List[InflightEntry[E]]:
        """Entries past deadline + grace: the no-silent-hangs liveness check."""
        stuck = [e for e in self._entries.values() if now > e.deadline + grace]
        self.stats.liveness_violations = len(stuck)
        return stuck

    def pop_overdue(self, now: float, grace: float = 0.0) -> List[InflightEntry[E]]:
        """Remove and return overdue entries (the periodic audit's reclaim).

        Unlike :meth:`overdue` -- a read-only oracle that *reports*
        stuck entries at harvest -- this is the repair path: the caller
        verdicts each returned entry (the query engine reports them as
        timeouts), so a peer crash that orphans table entries cannot
        leave them lingering until capacity shedding.  Does not touch
        ``liveness_violations``: reclaimed entries were not silent hangs.
        """
        keys = [k for k, e in self._entries.items() if now > e.deadline + grace]
        reclaimed: List[InflightEntry[E]] = []
        for key in keys:
            entry = self._pop(key)
            entry.resolved = True
            self.stats.completed += 1
            reclaimed.append(entry)
        return reclaimed


@dataclass
class TransportStats:
    """Fabric counters: netsim's ``NetworkStats`` fields, then extras.

    The shared fields let report code read either backend's stats
    object without caring which it got; the extra fields only exist on
    the socket path.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0
    messages_unroutable: int = 0
    messages_dropped_down: int = 0
    messages_cut: int = 0
    # socket-path extras
    #: octets this fabric wrote to its sockets (TCP frames count their 2-octet prefix)
    bytes_sent: int = 0
    decode_errors: int = 0
    tcp_queries: int = 0
    tcp_responses: int = 0
    extra: Dict[str, int] = field(default_factory=dict)
