"""The perf ledger: six named workloads, six end-to-end metrics, a per-layer
trace.  Everything here drives ``src/repro`` from outside, through public
entry points only; see ``perf/README.md``."""
