"""Generic data structures shared across the repro library.

This package holds the small, self-contained containers that the DCC
scheduler and the simulation substrate are built on:

- :class:`repro.util.sliding.SlidingWindowCounter` and
  :class:`repro.util.sliding.SlidingWindowRatio` -- windowed counters used
  by DCC's channel-capacity estimation (the anomaly monitor packs the
  same bucket scheme into its slot table).
- :class:`repro.util.tokenbucket.TokenBucket` and
  :class:`repro.util.tokenbucket.WindowedCounter` -- rate-limiting
  primitives shared by the server-side limiter tables and DCC's
  per-channel capacity control.
- :func:`repro.util.seeds.derive_seed` -- hash-based sub-seed
  derivation shared by the fuzzer's iteration streams and the fluid
  layer's promotion sub-seeds.
- :func:`repro.util.memsize.approx_deep_size` -- the deep ``getsizeof``
  walk behind Figure 10's state columns (``MopiFq.state_bytes``).

:mod:`repro.util.ordmap` (a treap, once MOPI-FQ's ``out_seq``) has no user
left here; it stays until the perf ledger drops its ``util.ordmap.*`` rows.
"""

from repro.util.seeds import derive_seed
from repro.util.sliding import SlidingWindowCounter, SlidingWindowRatio
from repro.util.tokenbucket import TokenBucket, WindowedCounter

__all__ = [
    "SlidingWindowCounter",
    "SlidingWindowRatio",
    "TokenBucket",
    "WindowedCounter",
    "derive_seed",
]
