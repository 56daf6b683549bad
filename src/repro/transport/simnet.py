"""Virtual-time backend: the existing netsim simulator as a transport.

This is deliberately a *thin* bundle, not a wrapper: the simulator and
network objects are exposed as-is, so every experiment that predates
the transport package keeps byte-identical behaviour (the selfcheck
digest is part of the acceptance criteria for any change here).
The simulator reads SimSan's switch (``REPRO_SIMSAN``) as every other
``Simulator`` does.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.netsim.link import Network
from repro.netsim.sim import Simulator


class VirtualBackend:
    """The (Simulator, Network) pair behind every figure in the repo."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim)

    @property
    def clock(self) -> Simulator:
        return self.sim

    @property
    def fabric(self) -> Network:
        return self.net

    def attach(self, node: Any) -> None:
        self.net.attach(node)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        self.sim.run(until=until, max_events=max_events)
        return self.sim.events_processed
