"""Zone lookup semantics: RFC 1034 4.3.2 + RFC 4592 wildcards."""

import pytest

from repro.dnscore.errors import ZoneError
from repro.dnscore.name import Name
from repro.dnscore.rdata import AData, RRType
from repro.dnscore.zone import LookupStatus, Zone

from tests.zone_fixtures import record_count


@pytest.fixture
def zone():
    z = Zone("example.com.", default_ttl=300)
    z.add_soa(negative_ttl=60)
    z.add_ns("@", "ns1")
    z.add_a("ns1", "10.0.0.1")
    z.add_a("www", "192.0.2.1")
    z.add_a("www", "192.0.2.2")
    z.add_txt("www", "hello")
    z.add_cname("alias", "www")
    z.add_wildcard_a("wc", "192.0.2.99")
    # delegation: sub.example.com -> child servers, with glue
    z.add_ns("sub", "ns1.sub")
    z.add_a("ns1.sub", "10.0.0.2")
    # deep record creating empty non-terminals
    z.add_a("deep.under.ent", "192.0.2.50")
    return z


class TestPositive:
    def test_exact_match(self, zone):
        result = zone.lookup("www.example.com.", RRType.A)
        assert result.status == LookupStatus.ANSWER
        assert len(result.answers[0]) == 2

    def test_type_filtering(self, zone):
        result = zone.lookup("www.example.com.", RRType.TXT)
        assert result.status == LookupStatus.ANSWER
        assert result.answers[0].rrtype == RRType.TXT

    def test_any_returns_all_types(self, zone):
        result = zone.lookup("www.example.com.", RRType.ANY)
        assert {rrset.rrtype for rrset in result.answers} == {RRType.A, RRType.TXT}

    def test_apex_lookup(self, zone):
        result = zone.lookup("example.com.", RRType.NS)
        assert result.status == LookupStatus.ANSWER

    def test_relative_name_coercion(self, zone):
        assert zone.lookup("www", RRType.A).status == LookupStatus.ANSWER


class TestCname:
    def test_cname_returned_for_other_types(self, zone):
        result = zone.lookup("alias.example.com.", RRType.A)
        assert result.status == LookupStatus.CNAME
        target = result.answers[0].records[0].rdata.target
        assert target == Name.from_text("www.example.com.")

    def test_cname_type_query_is_answer(self, zone):
        result = zone.lookup("alias.example.com.", RRType.CNAME)
        assert result.status == LookupStatus.ANSWER


class TestNegative:
    def test_nxdomain_with_soa(self, zone):
        result = zone.lookup("missing.example.com.", RRType.A)
        assert result.status == LookupStatus.NXDOMAIN
        assert result.authority[0].rrtype == RRType.SOA

    def test_nodata_for_existing_name_wrong_type(self, zone):
        result = zone.lookup("www.example.com.", RRType.AAAA)
        assert result.status == LookupStatus.NODATA
        assert result.authority[0].rrtype == RRType.SOA

    def test_empty_non_terminal_is_nodata_not_nxdomain(self, zone):
        # "under.ent" exists only because deep.under.ent has a record.
        result = zone.lookup("under.ent.example.com.", RRType.A)
        assert result.status == LookupStatus.NODATA

    def test_out_of_zone_is_notzone(self, zone):
        assert zone.lookup("www.other.org.", RRType.A).status == LookupStatus.NOTZONE


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        result = zone.lookup("random123.wc.example.com.", RRType.A)
        assert result.status == LookupStatus.ANSWER
        assert result.wildcard
        # Owner is the query name, not the wildcard (RFC 4592).
        assert result.answers[0].name == Name.from_text("random123.wc.example.com.")
        assert result.answers[0].records[0].rdata.address == "192.0.2.99"

    def test_wildcard_matches_multiple_labels(self, zone):
        result = zone.lookup("a.b.c.wc.example.com.", RRType.A)
        # Closest encloser of a.b.c.wc is wc (an ENT); *.wc matches.
        assert result.status == LookupStatus.ANSWER
        assert result.wildcard

    def test_existing_name_beats_wildcard(self, zone):
        zone.add_a("real.wc", "192.0.2.77")
        result = zone.lookup("real.wc.example.com.", RRType.A)
        assert not result.wildcard
        assert result.answers[0].records[0].rdata.address == "192.0.2.77"

    def test_wildcard_nodata_for_other_type(self, zone):
        result = zone.lookup("x.wc.example.com.", RRType.AAAA)
        assert result.status == LookupStatus.NODATA

    def test_wildcard_owner_itself_not_special(self, zone):
        result = zone.lookup("wc.example.com.", RRType.A)
        # "wc" is an empty non-terminal: NODATA, no synthesis.
        assert result.status == LookupStatus.NODATA

    def test_no_wildcard_means_nxdomain(self, zone):
        assert zone.lookup("y.nx.example.com.", RRType.A).status == LookupStatus.NXDOMAIN


class TestDelegation:
    def test_referral_below_cut(self, zone):
        result = zone.lookup("host.sub.example.com.", RRType.A)
        assert result.status == LookupStatus.DELEGATION
        assert result.cut == Name.from_text("sub.example.com.")
        assert result.authority[0].rrtype == RRType.NS

    def test_referral_includes_glue(self, zone):
        result = zone.lookup("host.sub.example.com.", RRType.A)
        glue = [rec.rdata.address for rrset in result.additional for rec in rrset]
        assert "10.0.0.2" in glue

    def test_query_at_cut_is_referral(self, zone):
        result = zone.lookup("sub.example.com.", RRType.A)
        assert result.status == LookupStatus.DELEGATION

    def test_apex_ns_is_not_a_cut(self, zone):
        assert zone.lookup("example.com.", RRType.NS).status == LookupStatus.ANSWER

    def test_glueless_delegation(self):
        z = Zone("attacker-com.")
        z.add_soa()
        z.add_ns("q-1", "ns-a1-1")  # target in-zone but no address record
        result = z.lookup("q-1.attacker-com.", RRType.A)
        assert result.status == LookupStatus.DELEGATION
        assert not result.additional  # no glue: the FF trigger

    def test_nested_cut_returns_topmost(self):
        """The FF zone shape: q-1 delegates to ns-a1-1 which is itself a
        cut; a query below q-1 must hit the q-1 cut first."""
        z = Zone("attacker-com.")
        z.add_soa()
        z.add_ns("q-1", "ns-a1-1")
        z.add_ns("ns-a1-1", "ns-t11-1.target-domain.")
        below = z.lookup("x.q-1.attacker-com.", RRType.A)
        assert below.cut == Name.from_text("q-1.attacker-com.")
        mid = z.lookup("ns-a1-1.attacker-com.", RRType.A)
        assert mid.cut == Name.from_text("ns-a1-1.attacker-com.")


class TestZoneAdmin:
    def test_out_of_zone_record_rejected(self, zone):
        from repro.dnscore.rrset import ResourceRecord

        with pytest.raises(ZoneError):
            zone.add_record(ResourceRecord(Name.from_text("x.org."), 60, AData("1.1.1.1")))

    def test_missing_soa_raises(self):
        z = Zone("nosoa.example.")
        z.add_a("www", "1.2.3.4")
        with pytest.raises(ZoneError):
            z.lookup("missing.nosoa.example.", RRType.A)

    def test_record_count(self, zone):
        assert record_count(zone) >= 9

    def test_contains(self, zone):
        assert zone.node_exists(Name.from_text("www.example.com."))
        assert zone.node_exists(Name.from_text("under.ent.example.com."))  # empty non-terminal exists
        assert not zone.node_exists(Name.from_text("missing.example.com."))
