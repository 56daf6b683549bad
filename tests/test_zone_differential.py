"""The label-keyed zone against the name-keyed one it replaced.

``tests/reference_zone.py`` is the zone as it was when its node map and
its empty non-terminals held the ``Name`` itself, verbatim.
``repro.dnscore.zone`` keys both on ``name.labels`` and walks suffixes of
the label tuple instead of ``Name`` ancestors.  Each zone here is built
once by the generators and copied record by record, in the same order,
into a reference zone; then every owner, every empty non-terminal and a
fresh child of each (plus a name outside the zone) is looked up in both
with each of A, NS, SOA, CNAME and ANY, and the two ``LookupResult``s
must agree field by field: status, each section's RRsets with their
records in order, the wildcard flag and the cut.
"""

import random

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import NSECData, RRType
from repro.dnscore.zone import LookupStatus, Zone
from repro.workloads.zonegen import (
    add_cq_instances,
    add_ff_delegations,
    build_ff_attacker_zone,
    build_target_zone,
    build_zone_graph,
    random_zone_specs,
)

from tests import reference_zone as reference

QTYPES = (RRType.A, RRType.NS, RRType.SOA, RRType.CNAME, RRType.ANY)


def _reference_copy(zone: Zone) -> reference.Zone:
    copy = reference.Zone(zone.origin, default_ttl=zone.default_ttl, signed=zone.signed)
    for owner in zone.owners():
        for rrset in zone.rrsets_at(owner).values():
            for record in rrset:
                copy.add_record(record)
    return copy


def _section(rrsets):
    return [(str(rrset.name), rrset.rrtype, [(str(r.name), r.ttl, r.rdata) for r in rrset]) for rrset in rrsets]


def _fields(result):
    cut = None if result.cut is None else str(result.cut)
    return (result.status.value, _section(result.answers), _section(result.authority),
            _section(result.additional), result.wildcard, cut)


def _queries(ref: reference.Zone):
    owners = list(ref._nodes)
    empty = sorted((name for name in ref._nonterminals if name not in ref._nodes), key=Name.canonical_key)
    names = owners + empty
    names += [name.child("fresh-x9") for name in names]
    names.append(Name.from_text("elsewhere.invalid."))
    return owners, empty, names


def _assert_same_zone(zone: Zone) -> dict:
    ref = _reference_copy(zone)
    owners, empty, names = _queries(ref)
    assert [str(owner) for owner in zone.owners()] == [str(owner) for owner in owners]
    statuses = {}
    for name in names:
        assert zone.node_exists(name) == ref.node_exists(name), str(name)
        assert zone.rrsets_at(name) == ref.rrsets_at(name), str(name)
        for qtype in QTYPES:
            got, want = zone.lookup(name, qtype), ref.lookup(name, qtype)
            assert _fields(got) == _fields(want), f"{name} {qtype}"
            statuses[got.status] = statuses.get(got.status, 0) + 1
    statuses["empty_nonterminals"] = len(empty)
    return statuses


def _target_zone(signed: bool = False) -> Zone:
    return build_target_zone("target-domain.", "ns1.target-domain.", "10.0.0.3", signed=signed)


def test_ff_attacker_zone():
    zone = build_ff_attacker_zone("attacker-com.", "target-domain.", "ns1.attacker-com.", "10.0.0.4",
                                  instances=3, fanout=3)
    add_ff_delegations(zone, "target-domain.", instances=2, fanout=2, ttl=5)
    seen = _assert_same_zone(zone)
    assert seen[LookupStatus.DELEGATION] > 100  # q-i and ns-aj-i are cuts, and what lies below them


def test_wildcard_target_zone():
    zone = _target_zone()
    add_cq_instances(zone, instances=2, chain_len=3, labels=4)  # deep owners: chains of empty non-terminals
    seen = _assert_same_zone(zone)
    assert seen["empty_nonterminals"] > 10
    assert seen[LookupStatus.ANSWER] and seen[LookupStatus.CNAME] and seen[LookupStatus.NODATA]
    assert seen[LookupStatus.NXDOMAIN] and seen[LookupStatus.NOTZONE]
    # a fresh name under the wildcard's empty parent is synthesised from
    # ``*.wc``, one label above it: the closest encloser found by labels
    fresh = zone.lookup(Name.from_text("a.b.wc.target-domain."), RRType.A)
    assert fresh.status == LookupStatus.ANSWER and fresh.wildcard
    assert str(fresh.answers[0].name) == "a.b.wc.target-domain."


def test_signed_zone_denial_ranges():
    zone = _target_zone(signed=True)
    zone.add_a("m.deep.target-domain.", "192.0.2.7")
    seen = _assert_same_zone(zone)
    assert seen[LookupStatus.NXDOMAIN]
    ref = _reference_copy(zone)
    for text in ("aaa.target-domain.", "fresh-x9.www.target-domain.", "zzz.target-domain.", "n.deep.target-domain."):
        name = Name.from_text(text)
        (_, got), (_, want) = zone.lookup(name, RRType.A).authority, ref.lookup(name, RRType.A).authority
        (got_record,), (want_record,) = got.records, want.records
        assert isinstance(got_record.rdata, NSECData)
        assert (str(got_record.name), str(got_record.rdata.next_name)) == \
               (str(want_record.name), str(want_record.rdata.next_name)), text


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_random_zone_graph(seed):
    graph = build_zone_graph(random_zone_specs(random.Random(seed)))
    assert len(graph.zones) >= 3  # the root, ``ns-pool.`` and at least one drawn zone
    for zone in graph.zones.values():
        _assert_same_zone(zone)
