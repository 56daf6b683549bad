"""Differential testing: Zone.lookup vs a brute-force reference model.

Random zones are generated under hypothesis control and every lookup is
checked against an independent, obviously-correct (quadratic) oracle
implementing RFC 1034 4.3.2 + RFC 4592 from first principles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.dnscore.zone import LookupStatus, Zone

ORIGIN = Name.from_text("model.example.")
LABELS = ["a", "b", "c", "w"]


def build_zone(owners, wildcard_parents, cut_owners):
    zone = Zone(ORIGIN, default_ttl=60)
    zone.add_soa()
    for owner_labels in owners:
        zone.add_a(".".join(owner_labels) if owner_labels else "@", "192.0.2.1")
    for parent_labels in wildcard_parents:
        name = ".".join(("*",) + parent_labels)
        zone.add_a(name, "192.0.2.9")
    for cut_labels in cut_owners:
        if not cut_labels:
            continue  # apex NS is not a cut
        zone.add_ns(".".join(cut_labels), "ns.elsewhere.org.")
    return zone


class ReferenceModel:
    """Quadratic-but-obviously-correct lookup oracle."""

    def __init__(self, owners, wildcard_parents, cut_owners):
        self.a_owners = {self._abs(labels) for labels in owners}
        self.wildcards = {self._abs(("*",) + labels) for labels in wildcard_parents}
        self.cuts = {self._abs(labels) for labels in cut_owners if labels}
        self.all_names = self.a_owners | self.wildcards | self.cuts | {ORIGIN}

    @staticmethod
    def _abs(labels):
        return Name(tuple(labels)).concat(ORIGIN)

    def exists(self, name):
        """Present as an owner or an ancestor of one (ENT)."""
        return any(owner.is_subdomain_of(name) for owner in self.all_names)

    def lookup(self, qname):
        # 1. Zone cut anywhere strictly on the path below the apex?
        for ancestor in qname.ancestors():
            if ancestor == ORIGIN:
                break
        path = [a for a in qname.ancestors() if a != ORIGIN and a.is_subdomain_of(ORIGIN)]
        for node in reversed(path):  # walk top-down
            if node in self.cuts:
                return ("DELEGATION", node)
        # 2. Exact data?
        if qname in self.a_owners or qname in self.wildcards:
            return ("ANSWER", qname)
        # 3. Exists (ENT / other types)?
        if self.exists(qname):
            return ("NODATA", None)
        # 4. Wildcard at *.closest-encloser?
        encloser = None
        for ancestor in qname.ancestors():
            if ancestor == qname:
                continue
            if self.exists(ancestor):
                encloser = ancestor
                break
        if encloser is not None:
            source = encloser.child("*")
            if source in self.wildcards or source in self.a_owners:
                return ("ANSWER", source)
            # RFC 4592: wildcard exists but lacks the type -> NODATA
            if self.exists(source) and source in self.all_names:
                return ("NODATA", None)
        return ("NXDOMAIN", None)


label_tuples = st.lists(
    st.sampled_from(LABELS), min_size=0, max_size=3
).map(tuple)

zone_shape = st.tuples(
    st.sets(label_tuples, max_size=8),  # A owners
    st.sets(st.lists(st.sampled_from(LABELS), min_size=0, max_size=2).map(tuple), max_size=3),
    st.sets(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2).map(tuple), max_size=2),
)


@settings(max_examples=250, deadline=None)
@given(zone_shape, label_tuples)
def test_zone_matches_reference_model(shape, query_labels):
    owners, wildcard_parents, cut_owners = shape
    # Wildcard owners can themselves be A owners; drop direct conflicts
    # where a cut is also a data owner (out of modelled scope).
    cut_owners = {c for c in cut_owners if c not in owners}
    zone = build_zone(owners, wildcard_parents, cut_owners)
    model = ReferenceModel(owners, wildcard_parents, cut_owners)

    qname = Name(tuple(query_labels)).concat(ORIGIN)
    got = zone.lookup(qname, RRType.A)
    want_status, want_detail = model.lookup(qname)

    mapping = {
        "ANSWER": LookupStatus.ANSWER,
        "NODATA": LookupStatus.NODATA,
        "NXDOMAIN": LookupStatus.NXDOMAIN,
        "DELEGATION": LookupStatus.DELEGATION,
    }
    assert got.status == mapping[want_status], (
        f"{qname}: zone={got.status} model={want_status} "
        f"owners={owners} wc={wildcard_parents} cuts={cut_owners}"
    )
    if want_status == "DELEGATION":
        assert got.cut == want_detail
    if want_status == "ANSWER":
        assert got.answers[0].name == qname


@settings(max_examples=60, deadline=None)
@given(zone_shape)
def test_every_added_owner_is_resolvable(shape):
    owners, wildcard_parents, cut_owners = shape
    cut_owners = {c for c in cut_owners if c not in owners}
    zone = build_zone(owners, wildcard_parents, cut_owners)
    for owner_labels in owners:
        qname = Name(tuple(owner_labels)).concat(ORIGIN)
        # Owners under a cut are occluded glue: referral is correct.
        result = zone.lookup(qname, RRType.A)
        assert result.status in (LookupStatus.ANSWER, LookupStatus.DELEGATION)
