"""repro: a reproduction of "DNS Congestion Control in Adversarial
Settings" (SOSP 2024).

The package itself exports only ``__version__``; the subpackages are:

- :mod:`repro.dnscore` -- DNS data model (names, records, messages,
  EDNS, wire codec, zones);
- :mod:`repro.netsim` -- deterministic discrete-event network simulator;
- :mod:`repro.server` -- authoritative servers, recursive resolvers,
  forwarders, rate limiting, caching;
- :mod:`repro.dcc` -- the DCC framework: MOPI-FQ scheduler, anomaly
  monitoring, pre-queue policing, in-band signaling, the non-invasive
  shim;
- :mod:`repro.workloads` -- attack patterns, zone generators, traffic
  sources, evaluation schedules;
- :mod:`repro.measure` -- the rate-limit measurement study;
- :mod:`repro.analysis` -- max-min fairness math and experiment
  post-processing;
- :mod:`repro.experiments` -- drivers regenerating each paper
  table/figure.
"""

from repro._version import __version__

__all__ = [
    "__version__",
]
