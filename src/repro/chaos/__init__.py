"""repro.chaos -- backend-neutral chaos orchestration + recovery SLOs.

Takes one serialized fault schedule (:mod:`repro.netsim.faults` specs)
and executes it against either transport backend through the
:class:`~repro.transport.base.Clock` / :class:`~repro.transport.base.Fabric`
protocols -- virtual-time fault shaping or real-socket proxy
interposition plus a supervised node lifecycle -- then audits the run
against recovery SLOs (MTTR, goodput retained, time-to-90%) with
deterministic, same-seed-reproducible metrics.

Layering (reprolint R6): chaos sits *above* transport and netsim;
``repro.server`` and ``repro.dcc`` must never import it -- the layers
under test stay chaos-blind.
"""

from repro.chaos.orchestrator import RAMP_STEP, LiveChaosOrchestrator
from repro.chaos.slo import RecoveryAuditor, SloConfig, segment_windows

__all__ = [
    "RAMP_STEP",
    "LiveChaosOrchestrator",
    "RecoveryAuditor",
    "SloConfig",
    "segment_windows",
]
