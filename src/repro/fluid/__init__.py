"""Hybrid fluid/packet simulation core (ISSUE 10, ROADMAP item 1).

Benign background load is modeled as per-cohort arrival/response
*rates* integrated on a fixed virtual-time tick (float lanes),
while adversarial and monitored flows stay packet-level.  The two
worlds couple through shared token buckets, overload pressure sinks,
and a seeded promotion/demotion path -- see docs/SCALING.md.

Layer position (reprolint R6): ``util <- dnscore <- obs <- netsim <-
fluid``; nothing below this package imports it.  The package is
stdlib-only.
"""

from repro.fluid.bridge import FluidBridge
from repro.fluid.cohort import (
    build_cohorts,
    parse_slice_key,
    pool_miss_ratio,
    slice_key,
)
from repro.fluid.promote import PromotionConfig, PromotionController

__all__ = [
    "FluidBridge",
    "build_cohorts",
    "parse_slice_key",
    "pool_miss_ratio",
    "slice_key",
    "PromotionConfig",
    "PromotionController",
]
