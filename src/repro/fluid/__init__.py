"""Hybrid fluid/packet simulation core (ISSUE 10, ROADMAP item 1).

Benign background load is modeled as per-cohort arrival/response
*rates* integrated on a fixed virtual-time tick (numpy-vectorized),
while adversarial and monitored flows stay packet-level.  The two
worlds couple through shared token buckets, overload pressure sinks,
and a seeded promotion/demotion path -- see docs/SCALING.md.

Layer position (reprolint R6): ``util <- dnscore <- obs <- netsim <-
fluid``; nothing below this package imports it.  The package imports
cleanly without numpy (specs stay serializable); building runtime
cohorts raises a clear error instead.
"""

from repro.fluid.bridge import FluidBridge
from repro.fluid.cohort import (
    HAVE_NUMPY,
    build_cohorts,
    parse_slice_key,
    pool_miss_ratio,
    require_numpy,
    slice_key,
)
from repro.fluid.promote import PromotionConfig, PromotionController

__all__ = [
    "FluidBridge",
    "HAVE_NUMPY",
    "build_cohorts",
    "parse_slice_key",
    "pool_miss_ratio",
    "require_numpy",
    "slice_key",
    "PromotionConfig",
    "PromotionController",
]
