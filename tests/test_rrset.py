"""Record / RRset / rdata tests."""

import pytest

from repro.dnscore.name import Name
from repro.dnscore.rdata import (
    AData,
    AAAAData,
    CNAMEData,
    MXData,
    NSData,
    OPTData,
    PTRData,
    RCode,
    RRType,
    SOAData,
    TXTData,
)
from repro.dnscore.rrset import ResourceRecord, RRSet

OWNER = Name.from_text("example.com.")


def _record(rdata, ttl=300, name=OWNER):
    return ResourceRecord(name=name, ttl=ttl, rdata=rdata)


class TestRdata:
    def test_rrtypes(self):
        assert _record(AData("1.2.3.4")).rrtype == RRType.A
        assert _record(NSData(OWNER)).rrtype == RRType.NS
        assert _record(CNAMEData(OWNER)).rrtype == RRType.CNAME

    def test_wire_lengths(self):
        assert AData("1.2.3.4").wire_length() == 4
        assert AAAAData("::1").wire_length() == 16
        assert NSData(Name.from_text("ns.example.com")).wire_length() == 16
        soa = SOAData(mname=OWNER, rname=OWNER)
        assert soa.wire_length() == 2 * OWNER.wire_length() + 20

    def test_to_text(self):
        assert AData("1.2.3.4").to_text() == "1.2.3.4"
        assert "300" in SOAData(OWNER, OWNER, minimum=300).to_text()
        assert TXTData("hi").to_text() == '"hi"'
        assert MXData(10, OWNER).to_text() == "10 example.com."
        assert PTRData(OWNER).to_text() == "example.com."
        assert OPTData(((1, b"ab"),)).wire_length() == 6

    def test_record_text(self):
        rec = _record(AData("1.2.3.4"))
        assert str(rec) == "example.com. 300 IN A 1.2.3.4"

    def test_rcode_success_classification(self):
        """Figure 8's effective-QPS metric: NOERROR and NXDOMAIN count."""
        assert RCode.NOERROR.is_success
        assert RCode.NXDOMAIN.is_success
        assert not RCode.SERVFAIL.is_success
        assert not RCode.REFUSED.is_success


class TestRRSet:
    def test_of_groups_records(self):
        r1 = _record(AData("1.1.1.1"))
        r2 = _record(AData("2.2.2.2"))
        rrset = RRSet.of(r1, r2)
        assert len(rrset) == 2
        assert rrset.rrtype == RRType.A

    def test_of_requires_records(self):
        with pytest.raises(ValueError):
            RRSet.of()

    def test_rejects_mismatched_owner(self):
        rrset = RRSet.of(_record(AData("1.1.1.1")))
        with pytest.raises(ValueError):
            rrset.add(_record(AData("2.2.2.2"), name=Name.from_text("other.com")))

    def test_rejects_mismatched_type(self):
        rrset = RRSet.of(_record(AData("1.1.1.1")))
        with pytest.raises(ValueError):
            rrset.add(_record(NSData(OWNER)))

    def test_duplicate_records_deduplicated(self):
        r = _record(AData("1.1.1.1"))
        rrset = RRSet.of(r, r)
        assert len(rrset) == 1

    def test_ttl_is_minimum(self):
        rrset = RRSet.of(_record(AData("1.1.1.1"), ttl=60), _record(AData("2.2.2.2"), ttl=600))
        assert rrset.ttl == 60

    def test_with_name_synthesis(self):
        """Wildcard synthesis relabels every record in the set."""
        rrset = RRSet.of(_record(AData("1.1.1.1")), _record(AData("2.2.2.2")))
        target = Name.from_text("synth.example.com")
        synthesized = rrset.with_name(target)
        assert synthesized.name == target
        assert all(rec.name == target for rec in synthesized)
        assert len(synthesized) == 2
        # Original unchanged.
        assert rrset.name == OWNER

    def test_equality(self):
        a = RRSet.of(_record(AData("1.1.1.1")), _record(AData("2.2.2.2")))
        b = RRSet.of(_record(AData("2.2.2.2")), _record(AData("1.1.1.1")))
        assert a == b

    def test_wire_length_sums_records(self):
        rrset = RRSet.of(_record(AData("1.1.1.1")), _record(AData("2.2.2.2")))
        assert rrset.wire_length() == 2 * (OWNER.wire_length() + 10 + 4)


class TestRRSetCachedDerivedValues:
    """``ttl`` and ``wire_length()`` are kept between calls; ``add`` is the
    one mutator and must drop both."""

    @staticmethod
    def _from_scratch(rrset):
        records = list(rrset)
        return min(rec.ttl for rec in records), sum(rec.wire_length() for rec in records)

    def test_add_invalidates_ttl_and_wire_length(self):
        rrset = RRSet.of(_record(TXTData("a"), ttl=600))
        assert (rrset.ttl, rrset.wire_length()) == self._from_scratch(rrset)
        rrset.add(_record(TXTData("a much longer text record"), ttl=60))
        assert rrset.ttl == 60
        assert (rrset.ttl, rrset.wire_length()) == self._from_scratch(rrset)
        assert (rrset.ttl, rrset.wire_length()) == (
            RRSet.of(*rrset).ttl, RRSet.of(*rrset).wire_length())
        rrset.add(_record(TXTData("b"), ttl=900))  # higher TTL: minimum stays
        assert (rrset.ttl, rrset.wire_length()) == self._from_scratch(rrset)
        assert rrset.ttl == 60

    def test_duplicate_add_changes_neither(self):
        record = _record(AData("1.1.1.1"), ttl=30)
        rrset = RRSet.of(record, _record(AData("2.2.2.2"), ttl=90))
        before = (rrset.ttl, rrset.wire_length(), len(rrset))
        rrset.add(record)
        assert (rrset.ttl, rrset.wire_length(), len(rrset)) == before
        assert before[:2] == self._from_scratch(rrset)

    def test_synthesised_copy_has_its_own_values(self):
        rrset = RRSet.of(_record(AData("1.1.1.1"), ttl=30))
        assert rrset.wire_length() == OWNER.wire_length() + 14
        longer = Name.from_text("a-much-longer-owner.example.com.")
        copy = rrset.with_name(longer)
        assert copy.wire_length() == longer.wire_length() + 14
        assert copy.ttl == 30

    def test_empty_set_has_no_ttl(self):
        empty = RRSet(OWNER, RRType.A)
        assert empty.wire_length() == 0
        with pytest.raises(ValueError):
            empty.ttl

    # -- NS targets / addresses (stored next to ttl / wire size) --------
    @staticmethod
    def _walk(rrset):
        """What the resolver cache computed per call before the values
        were stored: a record walk with ``isinstance`` on each."""
        records = list(rrset)
        return (
            tuple(rec.rdata.target for rec in records if isinstance(rec.rdata, NSData)),
            tuple(rec.rdata.address for rec in records if isinstance(rec.rdata, (AData, AAAAData))),
        )

    def test_ns_targets_and_addresses_equal_a_walk_before_and_after_add(self):
        ns = RRSet.of(_record(NSData(Name.from_text("ns1.example.net."))))
        assert (ns.ns_targets, ns.addresses) == self._walk(ns)
        assert ns.ns_targets == (Name.from_text("ns1.example.net."),)
        ns.add(_record(NSData(Name.from_text("ns2.example.net."))))
        assert (ns.ns_targets, ns.addresses) == self._walk(ns)
        assert len(ns.ns_targets) == 2 and ns.addresses == ()
        for rdata_type, first, second in ((AData, "192.0.2.1", "192.0.2.2"),
                                          (AAAAData, "2001:db8::1", "2001:db8::2")):
            addrs = RRSet.of(_record(rdata_type(first)))
            assert (addrs.ns_targets, addrs.addresses) == self._walk(addrs) == ((), (first,))
            addrs.add(_record(rdata_type(second)))
            assert (addrs.ns_targets, addrs.addresses) == self._walk(addrs) == ((), (first, second))

    def test_duplicate_add_keeps_the_stored_tuples(self):
        record = _record(NSData(Name.from_text("ns1.example.net.")))
        ns = RRSet.of(record, _record(NSData(Name.from_text("ns2.example.net."))))
        targets = ns.ns_targets
        ns.add(record)
        assert ns.ns_targets is targets  # nothing was cleared
        glue = RRSet.of(_record(AData("192.0.2.1")))
        addresses = glue.addresses
        glue.add(_record(AData("192.0.2.1")))
        assert glue.addresses is addresses

    def test_with_name_copies_inherit_nothing(self):
        ns = RRSet.of(_record(NSData(Name.from_text("ns1.example.net."))))
        glue = RRSet.of(_record(AData("192.0.2.1"), ttl=30))
        _ = ns.ns_targets, glue.addresses, glue.ttl, glue.wire_length()
        other = Name.from_text("other.example.com.")
        for copy in (ns.with_name(other), glue.with_name(other)):
            assert copy._ns_targets is None and copy._addresses is None
            assert copy._ttl is None and copy._wire_len is None
            assert (copy.ns_targets, copy.addresses) == self._walk(copy)

    def test_other_types_and_empty_sets_yield_empty_tuples(self):
        for rrset in (RRSet.of(_record(TXTData("x"))),
                      RRSet.of(_record(CNAMEData(Name.from_text("t.example.com.")))),
                      RRSet(OWNER, RRType.NS), RRSet(OWNER, RRType.A)):
            assert rrset.ns_targets == () and rrset.addresses == ()
