"""Scheduled fault injection: link degradation, partitions, crashes.

The paper's evaluation assumes the resolution infrastructure itself
stays healthy while adversarial congestion rages; layered-defense work
on the root DNS shows that the interesting regime is the combination --
defenses operating *through* server loss and reconfiguration.  This
module makes that regime expressible: a :class:`FaultInjector` applies
time-varying faults to a :class:`~repro.netsim.link.Network`:

- **link degradation ramps** -- added loss / latency / jitter between two
  address groups, optionally ramping up over a window before holding at
  peak (a congesting cross-flow, a failing line card);
- **partitions** -- bidirectional message cuts between two address
  groups over a window (a routing blackhole);
- **node outages** -- crash/recover cycles with optional flapping,
  delegating state-loss semantics to each node's ``on_crash`` /
  ``on_recover`` hooks (see :mod:`repro.netsim.node`).

Everything is deterministic: shaping is a pure function of virtual time,
and outage flap jitter draws from the simulator's dedicated
``"faults.outage"`` PRNG stream, so a fault schedule never perturbs the
``network.loss`` / ``network.jitter`` streams' *sequences* -- only which
draws happen, which is itself seed-stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.netsim.link import LinkSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.link import Network

Addresses = Union[str, Iterable[str]]

FaultSpec = Union["LinkDegradation", "Partition", "NodeOutage"]


def _group(addresses: Addresses) -> FrozenSet[str]:
    if isinstance(addresses, str):
        return frozenset((addresses,))
    return frozenset(addresses)


def _group_list(group: Addresses) -> List[str]:
    """Canonical (sorted) list form of an address group for JSON."""
    return sorted(_group(group))


@dataclass
class LinkDegradation:
    """Added impairment between two address groups over [start, end).

    ``ramp`` seconds after ``start`` the impairment reaches its peak
    (linear ramp; 0 = step).  It clears instantly at ``end``.
    """

    src: Addresses
    dst: Addresses
    start: float
    end: float
    #: peak *added* loss probability (clamped so total stays <= 1)
    loss: float = 0.0
    #: peak added one-way latency, seconds
    latency: float = 0.0
    #: peak added jitter, seconds
    jitter: float = 0.0
    #: seconds from start to peak severity (0 = immediate)
    ramp: float = 0.0
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"degradation window [{self.start}, {self.end}) is empty")
        self.src = _group(self.src)
        self.dst = _group(self.dst)

    def severity(self, now: float) -> float:
        """Impairment fraction in [0, 1] at virtual time ``now``."""
        if not self.start <= now < self.end:
            return 0.0
        if self.ramp <= 0:
            return 1.0
        return min(1.0, (now - self.start) / self.ramp)

    def matches(self, src: str, dst: str) -> bool:
        if src in self.src and dst in self.dst:
            return True
        return self.bidirectional and src in self.dst and dst in self.src

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "degradation",
            "src": _group_list(self.src),
            "dst": _group_list(self.dst),
            "start": self.start,
            "end": self.end,
            "loss": self.loss,
            "latency": self.latency,
            "jitter": self.jitter,
            "ramp": self.ramp,
            "bidirectional": self.bidirectional,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkDegradation":
        fields = {k: v for k, v in data.items() if k != "kind"}
        return cls(**fields)  # type: ignore[arg-type]


@dataclass
class Partition:
    """No messages pass between groups ``a`` and ``b`` during [start, end)."""

    a: Addresses
    b: Addresses
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"partition window [{self.start}, {self.end}) is empty")
        self.a = _group(self.a)
        self.b = _group(self.b)

    def severs(self, src: str, dst: str) -> bool:
        return (src in self.a and dst in self.b) or (src in self.b and dst in self.a)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "partition",
            "a": _group_list(self.a),
            "b": _group_list(self.b),
            "start": self.start,
            "end": self.end,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Partition":
        fields = {k: v for k, v in data.items() if k != "kind"}
        return cls(**fields)  # type: ignore[arg-type]


@dataclass
class NodeOutage:
    """Crash ``address`` at ``at`` for ``duration`` seconds, ``flaps`` times.

    With ``flaps > 1`` the crash/recover cycle repeats every ``period``
    seconds (crash-to-crash; default ``2 * duration``), modelling a
    flapping server.  ``jitter`` perturbs each crash and recovery instant
    by up to +/- that many seconds, drawn from the deterministic
    ``"faults.outage"`` stream.
    """

    address: str
    at: float
    duration: float
    flaps: int = 1
    period: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"outage duration must be positive, got {self.duration}")
        if self.flaps < 1:
            raise ValueError(f"flaps must be >= 1, got {self.flaps}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "outage",
            "address": self.address,
            "at": self.at,
            "duration": self.duration,
            "flaps": self.flaps,
            "period": self.period,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NodeOutage":
        fields = {k: v for k, v in data.items() if k != "kind"}
        return cls(**fields)  # type: ignore[arg-type]


#: JSON ``kind`` tag -> fault spec class, for :func:`fault_from_dict`
_FAULT_KINDS = {
    "degradation": LinkDegradation,
    "partition": Partition,
    "outage": NodeOutage,
}


def fault_from_dict(data: Dict[str, object]) -> FaultSpec:
    """Rebuild any fault spec from its :meth:`to_dict` form.

    Round-trips bit-for-bit: groups serialize as sorted lists and
    rebuild as frozensets, so a schedule shrunk to JSON and replayed
    drives the injector identically.
    """
    kind = data.get("kind")
    cls = _FAULT_KINDS.get(str(kind))
    if cls is None:
        raise ValueError(f"unknown fault kind {kind!r}")
    return cls.from_dict(data)


def schedule_to_dicts(faults: Iterable[FaultSpec]) -> List[Dict[str, object]]:
    return [fault.to_dict() for fault in faults]


def schedule_from_dicts(records: Iterable[Dict[str, object]]) -> List[FaultSpec]:
    return [fault_from_dict(record) for record in records]


def outage_period(spec: NodeOutage) -> float:
    """The crash-to-crash period of a flapping outage (default 2x duration)."""
    return spec.period if spec.period is not None else 2.0 * spec.duration


def expand_outage(
    spec: NodeOutage, rng: random.Random, now: float = 0.0
) -> List[Tuple[float, float]]:
    """Concrete ``(crash_at, recover_at)`` pairs for one outage spec.

    This is the single flap-expansion used by both backends: the virtual
    :class:`FaultInjector` and the live orchestrator call it with the
    same ``"faults.outage"`` RNG stream, so a schedule produces the same
    flap instants over real sockets as it does in virtual time.

    Pairs whose recovery slice is empty after clamping to ``now`` are
    *skipped* rather than scheduled: a crash and a recover at the same
    instant is not an outage, and enqueueing both at one timestamp makes
    the node's final up/down state depend on event-queue tie-breaking
    (the flapping edge case SimSan ordering tests pin).  Jitter draws
    still happen for skipped pairs, so the RNG stream's sequence -- and
    every later flap's timing -- is independent of the clamp.
    """
    period = outage_period(spec)
    pairs: List[Tuple[float, float]] = []
    for flap in range(spec.flaps):
        down_at = spec.at + flap * period
        up_at = down_at + spec.duration
        if spec.jitter > 0:
            down_at += rng.uniform(-spec.jitter, spec.jitter)
            up_at = max(down_at + 1e-9, up_at + rng.uniform(-spec.jitter, spec.jitter))
        down_at = max(down_at, now)
        up_at = max(up_at, now)
        if up_at <= down_at:
            continue
        pairs.append((down_at, up_at))
    return pairs


def fault_span(faults: Iterable[FaultSpec]) -> Optional[Tuple[float, float]]:
    """The ``[start, end)`` window covering every fault in a schedule.

    Returns ``None`` for an empty schedule.  Outage end is computed from
    the nominal flap grid (``at + (flaps - 1) * period + duration``);
    jitter is deliberately excluded so window segmentation -- which the
    recovery-SLO auditor and the fuzz recovery oracle both build on --
    is a pure function of the serialized schedule, not of RNG draws.
    """
    start: Optional[float] = None
    end: Optional[float] = None
    for spec in faults:
        if isinstance(spec, NodeOutage):
            s = spec.at
            e = spec.at + (spec.flaps - 1) * outage_period(spec) + spec.duration
        else:
            s = spec.start
            e = spec.end
        start = s if start is None else min(start, s)
        end = e if end is None else max(end, e)
    if start is None or end is None:
        return None
    return (start, end)


@dataclass
class FaultStats:
    crashes: int = 0
    recoveries: int = 0
    #: messages severed by an active partition
    partition_cuts: int = 0
    #: messages that went out over a degraded link spec
    degraded_messages: int = 0


class FaultInjector:
    """Applies a scheduled fault plan to one network.

    Faults are added with :meth:`add_partition`,
    :meth:`add_link_degradation` and :meth:`add_node_outage`, before or
    during a run (scheduling into the past is clamped to "now").  The
    first partition or degradation installs the network's
    ``fault_shaper``; outages alone leave every send unshaped.
    ``timeline`` records every lifecycle transition for reporting.
    """

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.sim = net.sim
        self._degradations: List[LinkDegradation] = []
        self._partitions: List[Partition] = []
        self._outages: List[NodeOutage] = []
        self.stats = FaultStats()
        #: (virtual time, human-readable fault event)
        self.timeline: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # fault registration
    # ------------------------------------------------------------------
    def add_link_degradation(self, spec: LinkDegradation) -> LinkDegradation:
        self._degradations.append(spec)
        self.net.fault_shaper = self._shape
        self._mark(spec.start, f"degradation start {_label(spec.src)}~{_label(spec.dst)}")
        self._mark(spec.end, f"degradation end {_label(spec.src)}~{_label(spec.dst)}")
        return spec

    def add_partition(self, spec: Partition) -> Partition:
        self._partitions.append(spec)
        self.net.fault_shaper = self._shape
        self._mark(spec.start, f"partition start {_label(spec.a)}|{_label(spec.b)}")
        self._mark(spec.end, f"partition heal {_label(spec.a)}|{_label(spec.b)}")
        return spec

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Register any fault spec (the deserialized-schedule entry point)."""
        if isinstance(spec, LinkDegradation):
            return self.add_link_degradation(spec)
        if isinstance(spec, Partition):
            return self.add_partition(spec)
        if isinstance(spec, NodeOutage):
            return self.add_node_outage(spec)
        raise TypeError(f"not a fault spec: {spec!r}")

    def add_node_outage(self, spec: NodeOutage) -> NodeOutage:
        self._outages.append(spec)
        rng = self.sim.rng("faults.outage")
        for down_at, up_at in expand_outage(spec, rng, now=self.sim.now):
            self.sim.schedule_at(down_at, self._crash, spec.address)
            self.sim.schedule_at(up_at, self._recover, spec.address)
        return spec

    # ------------------------------------------------------------------
    # node lifecycle drivers
    # ------------------------------------------------------------------
    def _crash(self, address: str) -> None:
        node = self.net.node(address)
        if node is None or not node.up:
            return
        node.crash()
        self.stats.crashes += 1
        self.timeline.append((self.sim.now, f"crash {address}"))

    def _recover(self, address: str) -> None:
        node = self.net.node(address)
        if node is None or node.up:
            return
        node.recover()
        self.stats.recoveries += 1
        self.timeline.append((self.sim.now, f"recover {address}"))

    def _mark(self, at: float, label: str) -> None:
        self.sim.schedule_at(
            max(at, self.sim.now), self.timeline.append, (at, label)
        )

    # ------------------------------------------------------------------
    # per-transmission shaping (the Network.fault_shaper hook)
    # ------------------------------------------------------------------
    def _shape(self, src: str, dst: str, spec: LinkSpec) -> Optional[LinkSpec]:
        now = self.sim.now
        for partition in self._partitions:
            if partition.start <= now < partition.end and partition.severs(src, dst):
                self.stats.partition_cuts += 1
                return None
        shaped = spec
        for degradation in self._degradations:
            severity = degradation.severity(now)
            if severity > 0.0 and degradation.matches(src, dst):
                shaped = LinkSpec(
                    latency=shaped.latency + severity * degradation.latency,
                    jitter=shaped.jitter + severity * degradation.jitter,
                    loss=min(1.0, shaped.loss + severity * degradation.loss),
                )
                self.stats.degraded_messages += 1
        return shaped


def _label(group: FrozenSet[str]) -> str:
    members = sorted(group)
    if len(members) <= 2:
        return ",".join(members)
    return f"{members[0]},...x{len(members)}"
