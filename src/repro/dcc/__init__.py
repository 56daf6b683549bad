"""DCC: the DNS congestion-control framework (the paper's contribution).

Components, mirroring Figure 5:

- :mod:`repro.dcc.mopifq` -- the MOPI-FQ scheduler (Section 4 /
  Appendix B): multi-output pseudo-isolated fair queuing over a shared
  entry pool, O(|O| + q) space and O(log |O|) enqueue/dequeue;
- :mod:`repro.dcc.baselines` -- the Figure 7 design-space alternatives
  (input-centric FQ, leapfrog, IO-isolated, output-centric calendar FQ,
  plain FIFO) used as ablation baselines;
- :mod:`repro.dcc.monitor` -- per-client anomaly monitoring over sliding
  windows (Section 3.2.2);
- :mod:`repro.dcc.policing` -- pre-queue policing of convicted clients
  (Section 3.2.3);
- :mod:`repro.dcc.signaling` -- in-band anomaly/policing/congestion
  signals carried in EDNS options (Section 3.3);
- :mod:`repro.dcc.state` -- per-client / per-server / per-request state
  tables with inactivity purging (Table 1);
- :mod:`repro.dcc.shim` -- the non-invasive I/O shim that turns a vanilla
  resolver or forwarder into a DCC-enabled one.
"""

from repro.dcc.shim import DccShim, DccConfig

__all__ = [
    "DccShim",
    "DccConfig",
]
