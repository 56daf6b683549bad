"""Wire-codec tests: round trips, compression, malformed input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Flags, Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import (
    AAAAData,
    AData,
    CNAMEData,
    MXData,
    NSData,
    PTRData,
    RCode,
    RRType,
    SOAData,
    TXTData,
)
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.wire import decode_message, encode_message

QNAME = Name.from_text("www.example.com.")


def roundtrip(msg: Message) -> Message:
    return decode_message(encode_message(msg))


class TestRoundtrip:
    def test_plain_query(self):
        q = Message.query(QNAME, RRType.A)
        d = roundtrip(q)
        assert d.question == q.question
        assert d.id == q.id & 0xFFFF or d.id == q.id  # 16-bit truncation
        assert d.is_query

    def test_response_with_answer(self):
        r = Message.query(QNAME, RRType.A).make_response()
        r.answers.append(RRSet.of(
            ResourceRecord(QNAME, 60, AData("192.0.2.1")),
            ResourceRecord(QNAME, 60, AData("192.0.2.2")),
        ))
        d = roundtrip(r)
        assert d.is_response
        assert len(d.answers) == 1
        assert len(d.answers[0]) == 2
        assert {rec.rdata.address for rec in d.answers[0]} == {"192.0.2.1", "192.0.2.2"}

    def test_all_rdata_types(self):
        owner = Name.from_text("example.com.")
        r = Message.query(owner, RRType.ANY).make_response()
        for rdata in (
            AData("10.0.0.1"),
            AAAAData("2001:db8::1"),
            NSData(Name.from_text("ns1.example.com.")),
            CNAMEData(Name.from_text("target.example.org.")),
            SOAData(owner, owner, 7, 1, 2, 3, 4),
            MXData(10, Name.from_text("mail.example.com.")),
            TXTData("hello world"),
            PTRData(Name.from_text("host.example.com.")),
        ):
            r.answers.append(RRSet.of(ResourceRecord(owner, 300, rdata)))
        d = roundtrip(r)
        types = {rrset.rrtype for rrset in d.answers}
        assert types == {
            RRType.A, RRType.AAAA, RRType.NS, RRType.CNAME,
            RRType.SOA, RRType.MX, RRType.TXT, RRType.PTR,
        }
        soa = next(rs for rs in d.answers if rs.rrtype == RRType.SOA).records[0].rdata
        assert (soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum) == (7, 1, 2, 3, 4)

    def test_edns_options_roundtrip(self):
        from repro.dnscore.edns import ClientAttribution

        q = Message.query(QNAME, RRType.A)
        q.edns_options.append(ClientAttribution("10.9.8.7", 53, 1234).encode())
        d = roundtrip(q)
        assert len(d.edns_options) == 1
        attr = ClientAttribution.decode(d.edns_options[0])
        assert attr.client == "10.9.8.7"

    def test_rcode_and_flags(self):
        r = Message.query(QNAME, RRType.A).make_response(RCode.NXDOMAIN)
        r.flags |= Flags.AA
        d = roundtrip(r)
        assert d.rcode == RCode.NXDOMAIN
        assert d.flags & Flags.AA
        assert d.flags & Flags.QR

    def test_long_txt_split_into_strings(self):
        r = Message.query(QNAME, RRType.TXT).make_response()
        text = "x" * 700  # needs 3 wire strings
        r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, TXTData(text))))
        d = roundtrip(r)
        assert d.answers[0].records[0].rdata.text == text


    @pytest.mark.parametrize("text", [
        "", "a", "a" * 254 + "é", "a" * 255, "a" * 256, "a" * 510 + "€", "é" * 300,
    ], ids=["0", "1", "254+2", "255", "256", "510+3", "600-all-2-byte"])
    def test_txt_round_trips_at_every_string_boundary(self, text):
        """The encoder cuts the UTF-8 bytes into 255-octet character-
        strings wherever they fall; the decoder must join before it
        decodes, or a character cut in two fails on the codec's own
        output (it did: ``"a" * 254 + "é"``)."""
        r = Message.query(QNAME, RRType.TXT).make_response()
        r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, TXTData(text))))
        wire = encode_message(r)
        raw = text.encode("utf-8")
        assert len(wire) == 12 + 21 + 2 + 10 + len(raw) + max(1, -(-len(raw) // 255)) + 11
        assert roundtrip(r).answers[0].records[0].rdata == TXTData(text)

    def test_invalid_utf8_in_txt_is_still_a_decode_error(self):
        r = Message.query(QNAME, RRType.TXT).make_response()
        r.answers.append(RRSet.of(ResourceRecord(QNAME, 60, TXTData("a" * 254 + "é"))))
        wire = bytearray(encode_message(r))
        assert wire[-13:-11] == b"\x01\xa9"  # the second string: the character's second byte
        wire[-12] = 0x41  # "...\xc3" + "A": no longer UTF-8 however it is joined
        with pytest.raises(WireDecodeError, match="invalid TXT bytes"):
            decode_message(bytes(wire))


class TestCompression:
    def test_compression_shrinks_repeated_names(self):
        r = Message.query(QNAME, RRType.A).make_response()
        for i in range(5):
            r.answers.append(RRSet.of(
                ResourceRecord(QNAME, 60, AData(f"192.0.2.{i}"))
            ))
        wire = encode_message(r)
        # Five copies of www.example.com (17 bytes raw); compression
        # replaces four of them with 2-byte pointers.
        assert len(wire) < 12 + r.question.wire_length() + 5 * 31 + 11
        assert decode_message(wire).answers  # still decodable

    def test_suffix_sharing(self):
        r = Message.query(QNAME, RRType.NS).make_response()
        r.answers.append(RRSet.of(
            ResourceRecord(QNAME, 60, NSData(Name.from_text("ns1.example.com."))),
        ))
        wire_len = len(encode_message(r))
        # Without any compression the two names would cost 17 + 17.
        uncompressed_estimate = 12 + 21 + 17 + 10 + 2 + 17 + 11
        assert wire_len < uncompressed_estimate


class TestMalformed:
    def test_truncated_header(self):
        with pytest.raises(WireDecodeError):
            decode_message(b"\x00\x01\x00")

    def test_trailing_garbage_rejected(self):
        wire = encode_message(Message.query(QNAME, RRType.A))
        with pytest.raises(WireDecodeError):
            decode_message(wire + b"\x00")

    def test_forward_pointer_rejected(self):
        # A name that is just a pointer to itself.
        evil = (
            b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
            b"\xc0\x0c\x00\x01\x00\x01"
        )
        with pytest.raises(WireDecodeError):
            decode_message(evil)

    def test_truncated_question(self):
        wire = encode_message(Message.query(QNAME, RRType.A))
        with pytest.raises(WireDecodeError):
            decode_message(wire[:14])


label_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10)
name_st = st.lists(label_st, min_size=1, max_size=5).map(Name)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(name_st, st.sampled_from([RRType.A, RRType.NS, RRType.TXT, RRType.MX]))
    def test_query_roundtrip(self, name, rrtype):
        q = Message.query(name, rrtype)
        d = roundtrip(q)
        assert d.question.name == name
        assert d.question.rrtype == rrtype

    @settings(max_examples=100, deadline=None)
    @given(
        name_st,
        st.lists(
            st.integers(0, 255).map(lambda b: f"192.0.{b}.{(b * 7) % 256}"),
            min_size=1,
            max_size=6,
            unique=True,
        ),
    )
    def test_answer_roundtrip(self, name, addresses):
        r = Message.query(name, RRType.A).make_response()
        rrset = RRSet(name, RRType.A)
        for addr in addresses:
            rrset.add(ResourceRecord(name, 60, AData(addr)))
        r.answers.append(rrset)
        d = roundtrip(r)
        assert {rec.rdata.address for rec in d.answers[0]} == set(addresses)
