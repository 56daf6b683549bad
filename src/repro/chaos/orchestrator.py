"""Backend-neutral chaos orchestration over a serialized fault schedule.

One fault schedule -- the JSON-serializable :mod:`repro.netsim.faults`
specs -- replays against either transport backend:

- **virtual**: the cast's own :class:`~repro.netsim.faults.FaultInjector`
  (``AttackScenario.injector``) takes the specs as they are and shapes
  messages inside the fabric itself;
- **live** (:class:`LiveChaosOrchestrator`): reconstructs the same
  fault semantics over real sockets -- link degradations and partitions
  become per-direction :class:`~repro.transport.chaosproxy.ChaosProxy`
  spec swaps scheduled at the fault boundaries, and node outages become
  a supervised crash/restart lifecycle on the
  :class:`~repro.transport.udp.UdpFabric` (crash = close the node's
  sockets and clear its in-flight wire state; restart = re-bind on
  fresh ports with state loss).

Both executions consume the *same* spec objects and draw outage flap
jitter from the same ``"faults.outage"`` RNG stream via
:func:`~repro.netsim.faults.expand_outage`, so a schedule's concrete
fault instants agree across backends to the limit of wall-clock timer
fidelity.

**Determinism on the live path.**  Spec swaps are scheduled at the
schedule's *nominal* boundary times and composed as pure functions of
``(schedule, nominal time)`` -- never of ``clock.now`` at fire time --
so a late-firing timer applies exactly the spec it would have applied
on time.  Partitions sever with ``drop=1.0`` and cleared windows with
``drop=0.0``; at those extremes the proxy's per-question occurrence
counters cannot flip any datagram's fate between same-seed runs.
Intermediate drop probabilities (a lossy degradation ramp) are
reproducible only when per-question occurrence counts are themselves
deterministic -- see docs/CHAOS.md for the workload caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from repro.netsim.faults import (
    FaultSpec,
    LinkDegradation,
    NodeOutage,
    Partition,
    expand_outage,
)
from repro.transport.chaosproxy import ChaosProxy, ChaosSpec
from repro.transport.udp import AsyncioClock, UdpFabric

#: seconds between spec re-evaluations while a degradation ramp is active
RAMP_STEP = 0.25

_LinkFault = Union[LinkDegradation, Partition]


@dataclass
class ChaosExecStats:
    """What the live orchestrator actually did."""

    crashes: int = 0
    restarts: int = 0
    proxies: int = 0
    spec_updates: int = 0
    link_faults: int = 0
    outages: int = 0


class LiveChaosOrchestrator:
    """Replay a fault schedule against real sockets.

    Construction is cheap; :meth:`apply` must run inside the fabric's
    event loop (after ``fabric.start()``) because it binds proxy
    sockets.  ``seed`` feeds every proxy's fault schedule so datagram
    fates stay order-independent.
    """

    backend = "live"

    def __init__(self, fabric: UdpFabric, clock: AsyncioClock, seed: int) -> None:
        self._fabric = fabric
        self._clock = clock
        self._seed = seed
        #: sorted (a, b) channel -> its proxy
        self._proxies: Dict[Tuple[str, str], ChaosProxy] = {}
        self._link_faults: List[_LinkFault] = []
        self.stats = ChaosExecStats()
        #: (wall-offset time, event) -- reporting only, not determinism
        self.timeline: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # schedule application
    # ------------------------------------------------------------------
    async def apply(self, faults: Iterable[FaultSpec]) -> None:
        plan = list(faults)
        await self._interpose(plan)
        self._schedule_link_boundaries()
        self._schedule_outages(plan)

    async def _interpose(self, plan: List[FaultSpec]) -> None:
        """One proxy per channel any link fault touches (idempotent)."""
        for spec in plan:
            if isinstance(spec, NodeOutage):
                self.stats.outages += 1
                continue
            self.stats.link_faults += 1
            self._link_faults.append(spec)
            left, right = (
                (spec.src, spec.dst)
                if isinstance(spec, LinkDegradation)
                else (spec.a, spec.b)
            )
            for x in sorted(left):
                for y in sorted(right):
                    key: Tuple[str, str] = tuple(sorted((x, y)))  # type: ignore[assignment]
                    if key[0] == key[1] or key in self._proxies:
                        continue
                    proxy = ChaosProxy(
                        self._fabric, self._clock, key[0], key[1], ChaosSpec(), self._seed
                    )
                    await proxy.start()
                    self._proxies[key] = proxy
                    self.stats.proxies += 1

    def _schedule_link_boundaries(self) -> None:
        """Re-evaluate channel specs at every nominal boundary instant.

        Boundaries are window edges plus ``RAMP_STEP`` quantization
        points inside active ramps; each firing composes specs for the
        *nominal* instant it was scheduled for, so wall lateness shifts
        when a spec lands but never what it says.
        """
        times = set()
        for spec in self._link_faults:
            times.add(spec.start)
            times.add(spec.end)
            if isinstance(spec, LinkDegradation) and spec.ramp > 0:
                step = spec.start + RAMP_STEP
                while step < min(spec.start + spec.ramp, spec.end):
                    times.add(round(step, 6))
                    step += RAMP_STEP
        for at in sorted(times):
            self._clock.schedule_at(at, self._refresh_channels, at)

    def _schedule_outages(self, plan: List[FaultSpec]) -> None:
        rng = self._clock.rng("faults.outage")
        for spec in plan:
            if not isinstance(spec, NodeOutage):
                continue
            for down_at, up_at in expand_outage(spec, rng, now=self._clock.now):
                self._clock.schedule_at(down_at, self._crash, spec.address)
                self._clock.schedule_at(up_at, self._restart, spec.address)

    # ------------------------------------------------------------------
    # link-fault execution (proxy spec swaps)
    # ------------------------------------------------------------------
    def _refresh_channels(self, at: float) -> None:
        for key in sorted(self._proxies):
            proxy = self._proxies[key]
            for src, dst in (key, (key[1], key[0])):
                spec = self.compose_spec(src, dst, at)
                proxy.set_spec(spec, proxy.direction(src, dst))
                self.stats.spec_updates += 1

    def compose_spec(self, src: str, dst: str, at: float) -> ChaosSpec:
        """The active fault spec for one direction at nominal time ``at``.

        Mirrors ``FaultInjector._shape``: partitions dominate (total
        drop), degradations compose additively with loss clamped at 1,
        and added latency +/- jitter becomes a uniform delay window
        applied to every datagram.
        """
        drop = 0.0
        latency = 0.0
        jitter = 0.0
        for fault in self._link_faults:
            if isinstance(fault, Partition):
                if fault.start <= at < fault.end and fault.severs(src, dst):
                    drop = 1.0
            else:
                severity = fault.severity(at)
                if severity > 0.0 and fault.matches(src, dst):
                    drop = min(1.0, drop + severity * fault.loss)
                    latency += severity * fault.latency
                    jitter += severity * fault.jitter
        delay_max = latency + jitter
        return ChaosSpec(
            drop=drop,
            delay_prob=1.0 if delay_max > 0 else 0.0,
            delay_min=max(0.0, latency - jitter),
            delay_max=delay_max,
        )

    # ------------------------------------------------------------------
    # outage execution (supervised node lifecycle)
    # ------------------------------------------------------------------
    def _crash(self, address: str) -> None:
        self._fabric.crash_node(address)
        self.stats.crashes += 1
        self.timeline.append((self._clock.now, f"crash {address}"))

    def _restart(self, address: str) -> None:
        self._fabric.restart_node(address)
        self.stats.restarts += 1
        self.timeline.append((self._clock.now, f"restart {address}"))

    # ------------------------------------------------------------------
    # reporting / teardown
    # ------------------------------------------------------------------
    def proxy_stats(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for (a, b), proxy in sorted(self._proxies.items()):
            out[f"{a}<->{b}"] = {
                "received": proxy.stats.received,
                "forwarded": proxy.stats.forwarded,
                "dropped": proxy.stats.dropped,
                "delayed": proxy.stats.delayed,
                "unroutable": proxy.stats.unroutable,
            }
        return out

    def close(self) -> None:
        for key in sorted(self._proxies):
            self._proxies[key].close()
