"""The fuzzer's scenario space: one serializable description per run.

A :class:`FuzzScenario` is the *entire* input of one fuzz iteration --
zone graph, client population, adversary strategy, fault schedule, and
resolver/defense configuration.  Everything is a plain dataclass (or a
list of the fault-spec dataclasses from :mod:`repro.netsim.faults`), so
a scenario round-trips through JSON bit-for-bit: shrunk counterexamples
are checked into ``tests/regressions/`` and replayed by tier-1 with no
generator in the loop.

The paper connection: DCC's claim is *strategy-agnostic* bounded
collateral damage (Section 1, "any adversarial strategy").  Hand-coded
figure scenarios sample four strategies; this scenario space samples
the cross product of strategies x topologies x fault schedules x
defense configs, and the oracles in :mod:`repro.fuzz.oracles` check the
claim on every draw.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

# The fault-spec classes themselves must be importable here:
# ``decode_dataclass`` resolves this module's ``List[FaultSpec]`` hint
# (a union of forward references) in this namespace.
from repro.netsim.faults import (
    FaultSpec,
    LinkDegradation,
    NodeOutage,
    Partition,
    schedule_from_dicts,
    schedule_to_dicts,
)
# Also anchors the ``List[CohortSpec]`` hint for decode_dataclass; the
# spec is plain-dataclass data, so a fluid scenario serializes like any
# other.
from repro.fluid.cohort import CohortSpec
from repro.workloads.zonegen import ZoneNodeSpec

from repro.fuzz.serialize import decode_dataclass

#: the concrete fault-spec types behind ``FaultSpec`` (also anchors the
#: imports that hint resolution needs)
FAULT_TYPES = (LinkDegradation, Partition, NodeOutage)

#: adversary strategies the generator draws from ("none" = clean run)
ADVERSARY_STRATEGIES = ("none", "nx", "wc", "chain", "ff")


@dataclass
class BenignClientSpec:
    """One well-behaved traffic source, pinned to a zone's name pool."""

    name: str
    zone: str  # origin text of the zone whose names it queries
    rate: float = 20.0
    start: float = 0.0
    stop: float = 8.0
    #: names cycled through (popular, cache-hittable traffic); the
    #: runner samples them from the zone's resolvable set
    pool_size: int = 4


@dataclass
class AdversarySpec:
    """One attacker, parameterised by strategy (paper Section 2.3)."""

    strategy: str = "none"  # one of ADVERSARY_STRATEGIES
    zone: str = ""  # origin of the targeted (nx/wc/chain) or owned (ff) zone
    rate: float = 200.0
    start: float = 2.0
    stop: float = 8.0
    #: FF-only: nested NS fan-out width and instance count
    ff_fanout: int = 4
    ff_instances: int = 16

    def __post_init__(self) -> None:
        if self.strategy not in ADVERSARY_STRATEGIES:
            raise ValueError(f"unknown adversary strategy {self.strategy!r}")


@dataclass
class ResolverKnobs:
    """The defended stack's configuration axes the fuzzer explores."""

    health_mode: str = "legacy"  # "legacy" | "adaptive"
    serve_stale_window: float = 0.0
    overload: bool = False
    high_watermark: int = 128
    low_watermark: int = 64
    qname_minimization: bool = False
    query_timeout: float = 0.8
    failure_threshold: int = 5


@dataclass
class DccKnobs:
    """DCC shim on/off and its channel budget."""

    enabled: bool = False
    signaling: bool = True
    channel_capacity: float = 300.0
    max_poq_depth: int = 50
    max_round: int = 75
    pool_capacity: int = 20_000


@dataclass
class FuzzScenario:
    """One complete, replayable fuzz input."""

    seed: int = 0
    duration: float = 8.0
    grace: float = 3.0
    zones: List[ZoneNodeSpec] = field(default_factory=list)
    clients: List[BenignClientSpec] = field(default_factory=list)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    faults: List[FaultSpec] = field(default_factory=list)
    resolver: ResolverKnobs = field(default_factory=ResolverKnobs)
    dcc: DccKnobs = field(default_factory=DccKnobs)
    client_timeout: float = 1.5
    client_attempts: int = 1
    #: fluid background mass riding the hybrid core (empty = pure
    #: packet scenario; the default generator does not draw these, so
    #: its corpus digests never depend on the fluid layer)
    fluid_cohorts: List[CohortSpec] = field(default_factory=list)

    # ------------------------------------------------------------------
    # round-trip serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        import dataclasses

        from repro.fuzz.serialize import encode

        # Fault specs carry frozenset groups and a kind tag, zone specs
        # are __slots__ classes: both have their own codecs; the rest of
        # the fields go through the generic dataclass encoder.
        data = {
            f.name: encode(getattr(self, f.name), f"FuzzScenario.{f.name}")
            for f in dataclasses.fields(self)
            if f.name not in ("faults", "zones")
        }
        data["faults"] = schedule_to_dicts(self.faults)
        data["zones"] = [spec.to_dict() for spec in self.zones]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzScenario":
        payload = dict(data)
        faults = schedule_from_dicts(payload.pop("faults", []))
        zones = [ZoneNodeSpec.from_dict(d) for d in payload.pop("zones", [])]
        scenario = decode_dataclass(cls, payload)
        scenario.faults = faults
        scenario.zones = zones
        return scenario

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def scenario_id(self) -> str:
        """Content hash: equal scenarios hash equal across processes."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # structural summaries (shrinker progress metric, log lines)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """A coarse structural size the shrinker drives towards zero."""
        return (
            len(self.zones) * 4
            + len(self.clients) * 2
            + len(self.faults) * 2
            + len(self.fluid_cohorts) * 2
            + (0 if self.adversary.strategy == "none" else 2)
            + sum(spec.leaf_names + spec.chain_len for spec in self.zones)
            + int(self.duration)
        )

    def describe(self) -> str:
        return (
            f"zones={len(self.zones)} clients={len(self.clients)} "
            f"adversary={self.adversary.strategy} faults={len(self.faults)} "
            f"dcc={'on' if self.dcc.enabled else 'off'} "
            f"health={self.resolver.health_mode} "
            f"stale={self.resolver.serve_stale_window:g} "
            f"duration={self.duration:g}s"
        )
