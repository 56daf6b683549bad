"""Discrete-event network simulation substrate.

The paper evaluates on BIND 9 instances spread over cloud VMs; this
reproduction replaces that testbed with a deterministic virtual-time
simulator:

- :class:`repro.netsim.sim.Simulator` -- event heap + virtual clock;
- :class:`repro.netsim.link.Network` -- message delivery with
  configurable per-pair latency, jitter and loss;
- :class:`repro.netsim.node.Node` -- base class for every DNS entity
  (stub client, forwarder, recursive resolver, authoritative server,
  DCC shim).

Virtual time is in seconds (float).  All randomness flows through named
PRNG streams owned by the simulator, so every experiment is exactly
reproducible from its seed.

:mod:`repro.netsim.faults` adds scheduled fault injection on top:
time-varying link degradation, partitions between address groups, and
node crash/recover cycles honoring each node's lifecycle hooks.

``Simulator`` and ``Network`` are also the reference implementations of
the backend-neutral ``Clock`` and ``Fabric`` protocols in
:mod:`repro.transport.base` (they satisfy them structurally, with no
import edge from here to there); :mod:`repro.transport.udp` is the
real-socket twin that runs the same nodes over localhost datagrams.
"""

from repro.netsim.sim import Simulator
from repro.netsim.link import Network
from repro.netsim.node import Node
from repro.netsim.faults import FaultInjector, NodeOutage, Partition

__all__ = [
    "Simulator",
    "Network",
    "Node",
    "FaultInjector",
    "NodeOutage",
    "Partition",
]
