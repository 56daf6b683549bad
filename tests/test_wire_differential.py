"""The single-pass wire codec against the codec it replaced.

``tests/reference_wire.py`` is the field-at-a-time codec of PR 19 and
earlier, verbatim.  The replacement in ``repro.dnscore.wire`` must emit
the same bytes for every message, decode every byte string to an equal
message, and reject the same inputs -- with two deliberate exceptions,
each a bug the reference keeps:

- a name longer than 255 octets leaves the reference as ``NameTooLong``
  (a ``FormError``); the new decoder raises ``WireDecodeError`` for
  every malformed input, so here a reference rejection is any
  ``DnsError`` and a new one must be ``WireDecodeError``;
- the reference decodes each TXT character-string separately, so text
  whose multi-byte character straddles two strings does not survive its
  own encoding.  Exactly that case -- the new decoder accepts a message
  with non-ASCII TXT that the reference rejects -- is excluded from the
  decode comparison, and nothing else is.
"""

import ipaddress
import random
from typing import Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.edns import ClientAttribution, EdnsOption, OptionCode
from repro.dnscore.errors import DnsError, NameTooLong, WireDecodeError
from repro.dnscore.message import Flags, Message, Question
from repro.dnscore.name import Name
from repro.dnscore.rdata import (
    AAAAData,
    AData,
    CNAMEData,
    MXData,
    NSData,
    NSECData,
    Opcode,
    PTRData,
    RCode,
    RData,
    RRType,
    SOAData,
    TXTData,
)
from repro.dnscore.rrset import ResourceRecord, RRSet
from repro.dnscore.wire import decode_message, encode_message

from tests import reference_wire as reference

LABELS = ("www", "ns1", "ns2", "mail", "a", "x-1", "_srv", "q17c0", "wc", "b" * 63)
SUFFIXES = ("example.com.", "example.org.", "sub.example.com.", "target-domain.", "com.", ".")
TTLS = (0, 1, 300, 2**31, 2**32 - 1, 2**32 + 7)  # the last one wraps: both codecs mask to 32 bits
TEXTS = ("", "v=spf1 -all", "x" * 255, "y" * 256, "z" * 700, "é" * 40, "a" * 254 + "é", "b" * 510 + "€")
QTYPES = (RRType.A, RRType.AAAA, RRType.NS, RRType.TXT, RRType.MX, RRType.SOA, RRType.ANY)


def fields(message: Message) -> tuple:
    """Everything the wire carries, RRsets and their records in order."""
    sections = tuple(
        tuple((rrset.name, rrset.rrtype, rrset.records) for rrset in section)
        for section in (message.answers, message.authority, message.additional)
    )
    return (message.question, message.id, message.opcode, message.flags, message.rcode,
            sections, tuple(message.edns_options))


def records(message: Message) -> Iterator[ResourceRecord]:
    for section in (message.answers, message.authority, message.additional):
        for rrset in section:
            yield from rrset


def has_non_ascii_txt(message: Message) -> bool:
    return any(isinstance(record.rdata, TXTData) and not record.rdata.text.isascii() for record in records(message))


def assert_same_verdict(data: bytes) -> bool:
    """Both accept with equal messages or both reject; True if accepted.
    Anything the new decoder raises that is not a ``WireDecodeError``
    propagates and fails the test."""
    try:
        old: Optional[Message] = reference.decode_message(data)
    except DnsError:
        old = None
    try:
        new: Optional[Message] = decode_message(data)
    except WireDecodeError:
        new = None
    if old is None and new is not None:
        # the one excluded case (module docstring): a straddling TXT
        assert has_non_ascii_txt(new), f"only the new codec accepts {data!r}"
        return True
    assert (old is None) == (new is None), f"only the reference accepts {data!r}"
    if old is not None and new is not None:
        assert fields(new) == fields(old), data
    return new is not None


# ----------------------------------------------------------------------
# message generator: one function, driven by a seeded ``random.Random``
# or by hypothesis's ``st.randoms()``
# ----------------------------------------------------------------------

def random_name(rng: random.Random, near: Optional[Name] = None) -> Name:
    """A name that tends to share a suffix with ``near`` (the question)."""
    if near is not None and rng.random() < 0.6:
        base = near
        for _ in range(rng.randrange(0, 3)):
            if not base.is_root:
                base = base.parent()
        if rng.random() < 0.3:
            return base
    else:
        base = Name.from_text(rng.choice(SUFFIXES))
    for _ in range(rng.randrange(0, 3)):
        try:
            base = base.child(rng.choice(LABELS))
        except NameTooLong:  # four 63-octet labels in a row
            break
    return base


def random_rdata(rng: random.Random, rrtype: RRType, near: Name) -> RData:
    if rrtype == RRType.A:
        return AData(".".join(str(rng.randrange(256)) for _ in range(4)))
    if rrtype == RRType.AAAA:
        return AAAAData(str(ipaddress.IPv6Address(rng.getrandbits(128))))
    if rrtype == RRType.NS:
        return NSData(random_name(rng, near))
    if rrtype == RRType.CNAME:
        return CNAMEData(random_name(rng, near))
    if rrtype == RRType.PTR:
        return PTRData(random_name(rng, near))
    if rrtype == RRType.SOA:
        return SOAData(random_name(rng, near), random_name(rng, near),
                       *[rng.choice((0, 1, 2**32 - 1, rng.getrandbits(32))) for _ in range(5)])
    if rrtype == RRType.MX:
        return MXData(rng.randrange(65536), random_name(rng, near))
    if rrtype == RRType.NSEC:
        return NSECData(random_name(rng, near))
    return TXTData(rng.choice(TEXTS))


ENCODABLE = (RRType.A, RRType.AAAA, RRType.NS, RRType.CNAME, RRType.PTR,
             RRType.SOA, RRType.MX, RRType.NSEC, RRType.TXT)


def random_message(rng: random.Random, ascii_txt_only: bool = False) -> Message:
    qname = random_name(rng)
    message = Message(
        question=Question(qname, rng.choice(QTYPES)),
        id=rng.choice((rng.randrange(2**16), rng.randrange(2**16, 2**31))),
        opcode=rng.choice(list(Opcode)),
        flags=Flags(rng.choice((0, 0x8000, 0x8180, 0x8400, 0x0100, 0x8780))),
        rcode=rng.choice(list(RCode)),
    )
    for section in (message.answers, message.authority, message.additional):
        for _ in range(rng.randrange(0, 4)):
            owner = random_name(rng, qname)
            rrtype = rng.choice(ENCODABLE)
            rrset = RRSet(owner, rrtype)
            for _ in range(rng.randrange(1, 4)):
                rdata = random_rdata(rng, rrtype, qname)
                if ascii_txt_only and isinstance(rdata, TXTData) and not rdata.text.isascii():
                    rdata = TXTData("plain")
                rrset.add(ResourceRecord(owner, rng.choice(TTLS + (rng.getrandbits(32),)), rdata))
            section.append(rrset)
    for _ in range(rng.randrange(0, 4)):
        if rng.random() < 0.4:
            message.edns_options.append(
                ClientAttribution(f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
                                  rng.randrange(65536), rng.getrandbits(32)).encode())
        else:
            code = rng.choice((int(OptionCode.DCC_ANOMALY), int(OptionCode.EXTENDED_ERROR), rng.randrange(65536)))
            message.edns_options.append(EdnsOption(code, rng.randbytes(rng.randrange(0, 12))))
    return message


def straddles(message: Message) -> bool:
    """Does some TXT split a multi-byte character across two 255-octet
    character-strings?  (The reference cannot decode its own output then.)"""
    for record in records(message):
        if isinstance(record.rdata, TXTData):
            raw = record.rdata.text.encode("utf-8")
            for i in range(0, len(raw), 255):
                try:
                    raw[i : i + 255].decode("utf-8")
                except UnicodeDecodeError:
                    return True
    return False


def check_message(message: Message) -> None:
    wire = encode_message(message)
    assert wire == reference.encode_message(message)
    new = decode_message(wire)
    if straddles(message):
        with pytest.raises(WireDecodeError):
            reference.decode_message(wire)
        assert has_non_ascii_txt(new)
    else:
        assert fields(new) == fields(reference.decode_message(wire))
    assert new.question == message.question
    assert new.id == message.id & 0xFFFF
    assert (new.opcode, new.flags, new.rcode) == (message.opcode, message.flags, message.rcode)
    assert new.edns_options == message.edns_options


class TestSameBytesSameMessages:
    def test_seeded_messages(self):
        rng = random.Random(20)
        for _ in range(1500):
            check_message(random_message(rng))

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hypothesis_messages(self, rng):
        check_message(random_message(rng))

    def test_all_nine_types_in_one_message(self):
        rng = random.Random(9)
        owner = Name.from_text("example.com.")
        message = Message.query(owner, RRType.ANY).make_response()
        for rrtype in ENCODABLE:
            message.answers.append(RRSet.of(ResourceRecord(owner, 300, random_rdata(rng, rrtype, owner))))
        check_message(message)
        decoded = decode_message(encode_message(message))
        assert [rrset.rrtype for rrset in decoded.answers] == list(ENCODABLE)
        assert fields(decoded)[5] == fields(message)[5]

    def test_unencodable_rdata_is_refused_by_both(self):
        from repro.dnscore.rdata import OPTData

        message = Message.query(Name.from_text("example.com."), RRType.A).make_response()
        message.answers.append(RRSet.of(ResourceRecord(message.question.name, 1, OPTData())))
        for codec in (reference.encode_message, encode_message):
            with pytest.raises(WireDecodeError):
                codec(message)


# ----------------------------------------------------------------------
# IPv4 text: accepted and rejected exactly as ``ipaddress`` does
# ----------------------------------------------------------------------

def _encode_a(address: str) -> bytes:
    owner = Name.from_text("a.example.")
    message = Message.query(owner, RRType.A, msg_id=1).make_response()
    message.answers.append(RRSet.of(ResourceRecord(owner, 1, AData(address))))
    return encode_message(message)


ODD_ADDRESSES = [
    "0.0.0.0", "255.255.255.255", "1.2.3.4", "01.2.3.4", "1.2.3.04", "00.0.0.0", "256.1.1.1", "1.2.3",
    "1.2.3.4.5", "", ".", "...", "1..2.3", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "+1.2.3.4", "-1.2.3.4",
    "1.2.3.٤", "１.2.3.4", "1.2.3.4/32", "0x1.2.3.4", "1e1.2.3.4", "1_0.2.3.4", "999.2.3.4", "1.2.3.1000",
    "::1", "a.b.c.d",
]


@pytest.mark.parametrize("address", ODD_ADDRESSES, ids=repr)
def test_ipv4_text_is_judged_as_ipaddress_judges_it(address):
    try:
        expected = ipaddress.IPv4Address(address).packed
    except ValueError as exc:
        with pytest.raises(type(exc)):
            _encode_a(address)
    else:
        assert _encode_a(address)[-15:-11] == expected  # the rdata sits before the 11-octet OPT


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789 ٣x", max_size=4), min_size=3, max_size=5).map(".".join))
def test_ipv4_text_property(address):
    try:
        expected: Optional[bytes] = ipaddress.IPv4Address(address).packed
    except ValueError:
        expected = None
    try:
        got: Optional[bytes] = _encode_a(address)[-15:-11]
    except ValueError:
        got = None
    assert got == expected


# ----------------------------------------------------------------------
# compression, case, address text, object identity
# ----------------------------------------------------------------------

def pointer_targets(wire: bytes) -> List[int]:
    """Targets of every compression pointer in owner/question position
    (the encoder writes rdata names uncompressed)."""
    targets = []

    def skip_name(pos: int) -> int:
        while True:
            length = wire[pos]
            if length >= 0xC0:
                targets.append(((length & 0x3F) << 8) | wire[pos + 1])
                return pos + 2
            if length == 0:
                return pos + 1
            pos += 1 + length

    records = sum(int.from_bytes(wire[i : i + 2], "big") for i in (6, 8, 10))
    pos = skip_name(12) + 4
    for _ in range(records):
        pos = skip_name(pos) + 10
        pos += int.from_bytes(wire[pos - 2 : pos], "big")
    assert pos == len(wire)
    return targets


def test_no_pointer_targets_an_offset_a_pointer_cannot_hold():
    """300 TXT records, > 16 KB: names first written past 0x3FFF are
    written again in full, never pointed at."""
    qname = Name.from_text("big.example.com.")
    message = Message.query(qname, RRType.TXT).make_response()
    for i in range(150):
        owner = qname.child(f"r{i}")  # two records each: every owner is written twice
        message.answers.append(RRSet.of(*[
            ResourceRecord(owner, 60, TXTData(f"{i:03d}{half}" + "t" * 56)) for half in "ab"]))
    wire = encode_message(message)
    assert len(wire) > 0x4000 + 2000
    assert wire == reference.encode_message(message)
    targets = pointer_targets(wire)
    assert len(targets) >= 300 and max(targets) <= 0x3FFF
    late_owner = b"\x04r149" + b"\xc0\x0c"  # first written far past 0x3FFF: spelled out both times
    assert wire.count(late_owner) == 2
    early_owner = b"\x02r0" + b"\xc0\x0c"
    assert wire.count(early_owner) == 1
    decoded = decode_message(wire)
    assert fields(decoded)[5] == fields(message)[5]
    assert fields(decoded) == fields(reference.decode_message(wire))


def test_mixed_case_wire_labels_fold_to_lower_case():
    lower = encode_message(Message.query(Name.from_text("www.example.com."), RRType.A, msg_id=5))
    mixed = lower.replace(b"\x03www\x07example", b"\x03WwW\x07eXAMPLE")
    assert mixed != lower
    name = decode_message(mixed).question.name
    expected = Name.from_text("www.example.com.")
    assert name == expected and hash(name) == hash(expected)
    assert name.labels == ("www", "example", "com") and name.wire_length() == 17
    assert fields(decode_message(mixed)) == fields(reference.decode_message(mixed))


def test_v4_mapped_aaaa_keeps_ipaddress_text_form():
    owner = Name.from_text("six.example.")
    message = Message.query(owner, RRType.AAAA).make_response()
    for text in ("::ffff:1.2.3.4", "::1.2.3.4", "2001:db8::1", "::", "64:ff9b::c000:201"):
        message.answers.append(RRSet.of(ResourceRecord(owner, 1, AAAAData(text))))
    decoded = decode_message(encode_message(message))
    mapped = decoded.answers[0].records[0].rdata.address
    assert mapped == str(ipaddress.IPv6Address("::ffff:1.2.3.4"))  # whatever this Python prints
    assert fields(decoded) == fields(reference.decode_message(encode_message(message)))


def test_names_a_pointer_makes_equal_are_one_object():
    qname = Name.from_text("q1c0.wc.target-domain.")
    response = Message.query(qname, RRType.A).make_response()
    response.answers.append(RRSet.of(
        ResourceRecord(qname, 1, AData("192.0.2.10")), ResourceRecord(qname, 1, AData("192.0.2.11"))))
    response.authority.append(RRSet.of(ResourceRecord(qname, 1, TXTData("t"))))
    decoded = decode_message(encode_message(response))
    question_name = decoded.question.name
    assert question_name is not qname  # built by the decoder, not found in some table
    for rrset in decoded.answers + decoded.authority:
        assert rrset.name is question_name
        assert all(record.name is question_name for record in rrset)
    # a pointer after labels of its own extends the memoised name's labels
    sub = Message.query(qname, RRType.A).make_response()
    sub.answers.append(RRSet.of(ResourceRecord(qname.child("deeper"), 1, AData("192.0.2.1"))))
    assert decode_message(encode_message(sub)).answers[0].name == qname.child("deeper")


def _ladder(records: int) -> bytes:
    """A question ``a.`` and ``records`` A records, each owner a pointer
    to the previous owner (the first to the question): owner k takes k
    hops when walked, one when memoised."""
    wire = bytearray(b"\x00\x01\x80\x00\x00\x01" + records.to_bytes(2, "big") + b"\x00\x00\x00\x00")
    wire += b"\x01a\x00\x00\x01\x00\x01"
    previous = 12
    for _ in range(records):
        here = len(wire)
        wire += (0xC000 | previous).to_bytes(2, "big") + b"\x00\x01\x00\x01\x00\x00\x00\x05\x00\x04\x7f\x00\x00\x01"
        previous = here
    return bytes(wire)


def test_the_memo_does_not_move_the_hop_limit():
    assert assert_same_verdict(_ladder(128)) is True
    assert len(decode_message(_ladder(128)).answers[0]) == 1  # 128 identical records: one RRset, deduplicated
    assert assert_same_verdict(_ladder(129)) is False
    with pytest.raises(WireDecodeError, match="pointer loop"):
        decode_message(_ladder(129))


def test_a_name_over_255_octets_is_a_wire_decode_error():
    """Satellite 1 at the codec: the reference lets ``NameTooLong`` out."""
    header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
    spelled = header + (b"\x3f" + b"a" * 63) * 5 + b"\x00" + b"\x00\x01\x00\x01"
    assert len(spelled) == 12 + 321 + 4
    # a pointer ladder gets there in fewer bytes: each record's owner is
    # one more 63-octet label in front of the previous owner
    ladder = bytearray(b"\x00\x01\x80\x00\x00\x01\x00\x04\x00\x00\x00\x00" + b"\x3f" + b"q" * 63 + b"\x00\x00\x01\x00\x01")
    previous = 12
    for _ in range(4):
        here = len(ladder)
        ladder += b"\x3f" + b"l" * 63 + (0xC000 | previous).to_bytes(2, "big")
        ladder += b"\x00\x01\x00\x01\x00\x00\x00\x05\x00\x04\x7f\x00\x00\x01"
        previous = here
    for data in (spelled, bytes(ladder)):
        with pytest.raises(WireDecodeError, match="octets on the wire"):
            decode_message(data)
        with pytest.raises(DnsError) as caught:
            reference.decode_message(data)
        assert not isinstance(caught.value, WireDecodeError)  # the bug, kept in the reference
    # 255 octets exactly (three 63-octet labels and one of 61) is a legal name
    legal = header + (b"\x3f" + b"a" * 63) * 3 + b"\x3d" + b"a" * 61 + b"\x00" + b"\x00\x01\x00\x01"
    assert decode_message(legal).question.name.wire_length() == 255
    assert assert_same_verdict(legal) is True


# ----------------------------------------------------------------------
# mutation corpus
# ----------------------------------------------------------------------

def mutations(rng: random.Random, wire: bytes, count: int):
    size = len(wire)
    for _ in range(count):
        kind = rng.randrange(8)
        data = bytearray(wire)
        if kind == 0:  # one byte, any value
            data[rng.randrange(size)] = rng.randrange(256)
        elif kind == 1:  # one bit
            data[rng.randrange(size)] ^= 1 << rng.randrange(8)
        elif kind == 2:  # truncation
            del data[rng.randrange(size):]
        elif kind == 3:  # extension
            data += rng.randbytes(rng.randrange(1, 6))
        elif kind == 4:  # a compression pointer dropped anywhere
            at = rng.randrange(12, size - 1) if size > 13 else 0
            data[at : at + 2] = (0xC000 | rng.randrange(0, min(size, 0x3FFF))).to_bytes(2, "big")
        elif kind == 5:  # two or three bytes at once
            for _ in range(rng.randrange(2, 4)):
                data[rng.randrange(size)] = rng.randrange(256)
        elif kind == 6:  # a length/count-looking byte nudged by one
            at = rng.randrange(size)
            data[at] = (data[at] + rng.choice((-1, 1))) % 256
        else:  # a slice removed or repeated
            lo = rng.randrange(size)
            hi = min(size, lo + rng.randrange(1, 12))
            if rng.random() < 0.5:
                del data[lo:hi]
            else:
                data[lo:lo] = data[lo:hi]
        yield bytes(data)


def test_mutated_truncated_and_extended_messages_get_the_same_verdict():
    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(450):
        wire = encode_message(random_message(rng, ascii_txt_only=True))
        for data in mutations(rng, wire, 48):
            if assert_same_verdict(data):
                accepted += 1
            else:
                rejected += 1
    assert accepted + rejected >= 20_000
    assert accepted >= 2_000 and rejected >= 10_000, (accepted, rejected)
