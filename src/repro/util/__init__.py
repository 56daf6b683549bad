"""Generic data structures shared across the repro library.

This package holds the small, self-contained containers that the DCC
scheduler and the simulation substrate are built on (import them from
their modules; the package re-exports nothing):

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
left here; only the perf ledger's ``util.ordmap.*`` rows reach it, and it
goes when they do (reprolint R10 flags it without the ``perf/`` root).
"""
