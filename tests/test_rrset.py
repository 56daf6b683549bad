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
