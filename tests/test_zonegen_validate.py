"""Zone-graph validation: dangling delegations, duplicates, occlusion."""

import random

import pytest

from repro.dnscore.rdata import RRType
from repro.dnscore.zone import Zone
from repro.workloads.zonegen import (
    ZoneGraphError,
    ZoneNodeSpec,
    build_ff_attacker_zone,
    build_root_zone,
    build_target_zone,
    build_zone_graph,
    random_zone_specs,
    validate_zone_graph,
)


class TestValidateZoneGraph:
    def test_figure3_graph_validates_clean(self):
        root = build_root_zone({"target-domain.": ("ns1.target-domain.", "10.0.0.2")})
        target = build_target_zone("target-domain.", "ns1", "10.0.0.2")
        root.add_ns("attacker-com.", "ns1.attacker-com.")
        root.add_a("ns1.attacker-com.", "10.0.0.3")
        attacker = build_ff_attacker_zone(
            "attacker-com.", "target-domain.", "ns1", "10.0.0.3", instances=4
        )
        validate_zone_graph([root, target, attacker])

    def test_duplicate_origin_rejected(self):
        a = Zone("dup.")
        a.add_soa()
        b = Zone("dup.")
        b.add_soa()
        with pytest.raises(ZoneGraphError, match="duplicate zone origin"):
            validate_zone_graph([a, b])

    def test_missing_soa_rejected(self):
        zone = Zone("nosoa.")
        zone.add_ns("@", "ns.nosoa.")
        zone.add_a("ns.nosoa.", "10.0.0.9")
        with pytest.raises(ZoneGraphError, match="SOA"):
            validate_zone_graph([zone])

    def test_dangling_delegation_rejected_with_clear_error(self):
        parent = Zone("p.")
        parent.add_soa()
        parent.add_ns("@", "ns.p.")
        parent.add_a("ns.p.", "10.0.0.9")
        parent.add_ns("child.p.", "ns.nowhere.")  # no glue, no chase path
        with pytest.raises(ZoneGraphError, match="dangling delegation"):
            validate_zone_graph([parent])

    def test_cname_and_other_data_rejected(self):
        zone = Zone("c.")
        zone.add_soa()
        zone.add_ns("@", "ns.c.")
        zone.add_a("ns.c.", "10.0.0.9")
        zone.add_cname("alias.c.", "ns.c.")
        zone._nodes[zone._absolute("alias.c.").labels][RRType.A] = zone.lookup(
            "ns.c.", RRType.A
        ).answers[0]
        with pytest.raises(ZoneGraphError, match="CNAME"):
            validate_zone_graph([zone])


class TestBuildZoneGraph:
    def test_random_graphs_validate(self):
        for seed in range(10):
            specs = random_zone_specs(random.Random(seed))
            graph = build_zone_graph(specs)
            for origin, names in graph.resolvable.items():
                assert origin in graph.zones
                assert names or True  # every origin is present, names optional

    def test_glueless_bug_injection_rejected_when_validated(self):
        specs = [ZoneNodeSpec("z0.", glueless=True)]
        with pytest.raises(ZoneGraphError, match="dangling delegation"):
            build_zone_graph(specs, omit_glueless_addresses=True)

    def test_glueless_fixed_builder_is_chaseable(self):
        graph = build_zone_graph([ZoneNodeSpec("z0.", glueless=True)])
        infra = graph.zones["ns-pool."]
        assert infra.lookup("ns-0.ns-pool.", RRType.A).answers

    def test_duplicate_spec_origin_rejected(self):
        with pytest.raises(ZoneGraphError, match="duplicate zone spec"):
            build_zone_graph([ZoneNodeSpec("z0."), ZoneNodeSpec("z0.")])

    def test_orphan_child_rejected(self):
        with pytest.raises(ZoneGraphError, match="no parent zone"):
            build_zone_graph([ZoneNodeSpec("sub.z9.")])

    def test_server_zones_covers_all_origins(self):
        graph = build_zone_graph([ZoneNodeSpec("z0."), ZoneNodeSpec("z1.")])
        hosted = [z.origin for zones in graph.server_zones().values() for z in zones]
        assert len(hosted) == len(graph.zones)
