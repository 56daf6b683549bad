"""Cohort registration: fluid populations and their packet twins.

This module is where the fluid layer meets the traffic sources: a
:class:`~repro.fluid.cohort.CohortSpec` describes a population once,
and from that single description the harness can

- mount the float-lane fluid runtime on the packet path
  (:func:`mount_fluid`: shared channel buckets, overload pressure),
- materialize *slices* of it as real :class:`StubClient` objects when
  the promotion controller flags them (:class:`SliceMaterializer`), or
- instantiate the *whole* cohort packet-level
  (:func:`packet_cohort_clients`) -- the reference the scale
  experiment's verdict-match and the goodput-agreement tests compare
  against.

Address discipline: promoted client ``j`` of slice ``s`` always gets
:func:`promoted_address` -- and :func:`packet_cohort_clients` numbers
its clients the same way -- so a hybrid run's promoted clients and a
packet-only run's clients share addresses, and DCC verdicts can be
compared per address across modes.  All client randomness (jitter,
qname draws) flows through ``sim.rng`` streams keyed by that address,
so the comparison is apples-to-apples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.fluid import FluidBridge, build_cohorts
from repro.fluid.cohort import Cohort, CohortSpec, slice_key
from repro.netsim.link import Network
from repro.util.tokenbucket import TokenBucket
from repro.workloads.clients import ClientConfig, StubClient
from repro.workloads.patterns import NxdomainPattern, QueryPattern, WildcardPattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.dcc.shim import DccShim
    from repro.netsim.sim import Simulator
    from repro.server.resolver import RecursiveResolver

__all__ = [
    "CohortSpec",
    "FluidPressure",
    "PromotedHandle",
    "SliceMaterializer",
    "cohort_pattern",
    "mount_fluid",
    "packet_cohort_clients",
    "promoted_address",
    "scale_cohort_specs",
    "slice_client_count",
]


def cohort_pattern(spec: CohortSpec) -> QueryPattern:
    """The packet-level query pattern equivalent to a cohort's mix."""
    if spec.pattern == "WC":
        return WildcardPattern(spec.zone)
    if spec.pattern == "WC_POOL":
        return WildcardPattern(spec.zone, pool_size=spec.pool_size)
    if spec.pattern == "NX":
        return NxdomainPattern(spec.zone)
    raise ValueError(f"unknown cohort pattern {spec.pattern!r}")


def promoted_address(cohort_name: str, slice_idx: int, index: int) -> str:
    """Deterministic address of packet client ``index`` of a slice."""
    return f"10.9.{cohort_name}.{slice_idx}.{index}"


def slice_client_count(spec: CohortSpec, slice_idx: int) -> int:
    """How many clients the cohort's slice ``slice_idx`` holds."""
    base, rem = divmod(spec.clients, spec.slices)
    return base + (1 if slice_idx < rem else 0)


def _client_config(
    spec: CohortSpec,
    resolvers: List[str],
    start: float,
    stop: float,
) -> ClientConfig:
    return ClientConfig(
        rate=spec.rate,
        start=start,
        stop=stop,
        resolvers=list(resolvers),
        request_timeout=spec.timeout,
        max_attempts=1,
    )


class PromotedHandle:
    """Opaque result of one slice materialization."""

    __slots__ = ("key", "clients", "promoted_at")

    def __init__(self, key: str, clients: List[StubClient], promoted_at: float) -> None:
        self.key = key
        self.clients = clients
        self.promoted_at = promoted_at


class SliceMaterializer:
    """Factory pair for :class:`repro.fluid.promote.PromotionController`.

    Owns the per-slice client numbering (a demoted-then-repromoted
    slice continues at the next index so addresses never collide on the
    still-attached quiet nodes) and keeps every client it ever built in
    ``all_clients`` for end-of-run accounting.
    """

    def __init__(
        self,
        network: Network,
        resolvers: List[str],
        stop: float,
        on_create: Optional[Callable[[StubClient], None]] = None,
    ) -> None:
        self.network = network
        self.resolvers = list(resolvers)
        self.stop = stop
        self.on_create = on_create
        self._next_index: Dict[str, int] = {}
        self.all_clients: List[StubClient] = []
        self.handles: List[PromotedHandle] = []

    def materialize(
        self, cohort: Cohort, slice_idx: int, count: int, sub_seed: int, now: float
    ) -> PromotedHandle:
        key = slice_key(cohort.spec.name, slice_idx)
        base = self._next_index.get(key, 0)
        self._next_index[key] = base + count
        clients: List[StubClient] = []
        for j in range(base, base + count):
            client = StubClient(
                promoted_address(cohort.spec.name, slice_idx, j),
                cohort_pattern(cohort.spec),
                _client_config(cohort.spec, self.resolvers, start=now, stop=self.stop),
            )
            self.network.attach(client)
            client.start()
            clients.append(client)
            self.all_clients.append(client)
            if self.on_create is not None:
                self.on_create(client)
        handle = PromotedHandle(key, clients, now)
        self.handles.append(handle)
        return handle

    def dematerialize(self, handle: PromotedHandle, now: float) -> None:
        """Quiet the slice's clients; the nodes stay attached so any
        in-flight responses drain deterministically."""
        for client in handle.clients:
            client.config.stop = now


def packet_cohort_clients(
    spec: CohortSpec,
    network: Network,
    resolvers: List[str],
    stop: Optional[float] = None,
    limit_per_slice: Optional[int] = None,
) -> List[StubClient]:
    """The whole cohort as packet-level clients (reference runs).

    Numbering matches :class:`SliceMaterializer`: slice ``s`` client
    ``j`` lives at ``promoted_address(name, s, j)``, so a packet-only
    run and a hybrid run that promoted ``j`` < ``limit_per_slice``
    clients are verdict-comparable address by address.
    """
    clients: List[StubClient] = []
    until = spec.stop if stop is None else min(spec.stop, stop)
    for slice_idx in range(spec.slices):
        count = slice_client_count(spec, slice_idx)
        if limit_per_slice is not None:
            count = min(count, limit_per_slice)
        for j in range(count):
            client = StubClient(
                promoted_address(spec.name, slice_idx, j),
                cohort_pattern(spec),
                _client_config(spec, resolvers, start=spec.start, stop=until),
            )
            network.attach(client)
            clients.append(client)
    return clients


def mount_fluid(
    sim: Simulator,
    specs: List[CohortSpec],
    resolver: RecursiveResolver,
    shim: Optional[DccShim],
    capacity: float,
    stop_at: float,
    tick: float = 0.1,
) -> FluidBridge:
    """Couple fluid cohorts to the packet path; the caller starts the bridge.

    Each destination drains the DCC scheduler's own channel bucket when
    a shim fronts the resolver, so fluid load and packet flows contend
    for the same tokens; without one it gets a private bucket at
    ``capacity`` QPS.  The aggregate backlog presses on the resolver's
    overload watermarks.  When :meth:`FluidBridge.start` runs relative to
    the packet clients fixes the event order, so it stays with the
    caller.
    """
    bridge = FluidBridge(sim, tick=tick, stop_at=stop_at)
    for spec in specs:
        if spec.destination not in bridge.channels:
            if shim is not None:
                bucket = shim.scheduler.channel_bucket(spec.destination)
            else:
                bucket = TokenBucket(rate=capacity, burst=max(1.0, capacity * 0.1))
            bridge.add_channel(spec.destination, bucket)
    for cohort in build_cohorts(specs):
        bridge.add_cohort(cohort)
    if resolver.overload is not None:
        bridge.pressure_sinks.append(FluidPressure(resolver).push)
    return bridge


class FluidPressure:
    """Fluid backlog -> the resolver's overload watermarks, in
    pending-request equivalents (each backlogged query would occupy one
    table slot).  A bound-method sink: reprolint R4 keeps closures off
    the tick chain."""

    __slots__ = ("resolver",)

    def __init__(self, resolver: RecursiveResolver) -> None:
        self.resolver = resolver

    def push(self, now: float, backlog: float) -> None:
        self.resolver.overload.external_pressure = backlog


def scale_cohort_specs(
    total_clients: int,
    duration: float,
    zone: str,
    destination: str,
    suspect_clients: int = 8,
    suspect_rate: float = 40.0,
) -> List[CohortSpec]:
    """The fig8-shaped benign mass at population scale.

    Mirrors the Table 2 composition translated to stub populations:
    a small *heavy* tier, a broad *medium* tier, and a long tail of
    *light* clients, all on cache-friendly zipf pools -- plus a tiny
    promotable *suspect* cohort running the NX (Water Torture) pattern,
    the compromised-CPE sliver the hybrid promotion path exists for.
    """
    if total_clients < 100:
        raise ValueError(f"scale scenarios start at 100 clients, got {total_clients}")
    heavy = total_clients // 10
    medium = (total_clients * 3) // 10
    light = total_clients - heavy - medium
    return [
        CohortSpec(
            name="heavy",
            clients=heavy,
            rate=0.04,
            zone=zone,
            destination=destination,
            stop=duration,
            pattern="WC_POOL",
            pool_size=4096,
            zipf_s=1.0,
            ttl=30.0,
        ),
        CohortSpec(
            name="medium",
            clients=medium,
            rate=0.015,
            zone=zone,
            destination=destination,
            stop=duration,
            pattern="WC_POOL",
            pool_size=8192,
            zipf_s=0.9,
            ttl=30.0,
        ),
        CohortSpec(
            name="light",
            clients=light,
            rate=0.004,
            zone=zone,
            destination=destination,
            stop=duration,
            pattern="WC_POOL",
            pool_size=16384,
            zipf_s=0.8,
            ttl=30.0,
        ),
        CohortSpec(
            name="suspect",
            clients=suspect_clients,
            rate=suspect_rate,
            zone=zone,
            destination=destination,
            stop=duration,
            pattern="NX",
            slices=max(1, suspect_clients // 2),
            promotable=True,
        ),
    ]
