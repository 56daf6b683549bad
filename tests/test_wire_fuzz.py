"""Wire-codec robustness: arbitrary bytes must never crash the decoder.

A DCC middlebox parses packets straight off the wire; malformed input
must produce :class:`WireDecodeError`, never an unhandled exception --
an attacker-reachable parser is exactly where crashes become DoS.  The
transport catches exactly that class (``UdpFabric._on_datagram``,
``ChaosProxy._key``), so any *other* exception fails these tests, other
``DnsError``s included: ``NameTooLong`` used to get out this way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.dnscore.wire import decode_message, encode_message


@settings(max_examples=400, deadline=None)
@given(st.binary(min_size=0, max_size=600))
def test_random_bytes_never_crash(data):
    try:
        decode_message(data)
    except WireDecodeError:
        pass  # rejection is the expected outcome


@settings(max_examples=400, deadline=None)
@given(st.binary(min_size=0, max_size=600), st.integers(0, 3), st.integers(0, 3))
def test_random_bodies_behind_a_plausible_header_never_crash(body, ancount, arcount):
    # random bytes alone seldom say QDCOUNT=1, so seldom get past the header
    header = b"\x00\x01\x80\x00\x00\x01" + bytes((0, ancount, 0, 0, 0, arcount))
    try:
        decode_message(header + body)
    except WireDecodeError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=40), st.integers(0, 120))
def test_truncations_of_valid_messages_never_crash(suffix, cut):
    wire = encode_message(Message.query(Name.from_text("fuzz.example."), RRType.A))
    mangled = wire[:cut] + suffix
    try:
        decode_message(mangled)
    except WireDecodeError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(0, 255))
def test_single_byte_corruption_never_crashes(position, value):
    wire = bytearray(
        encode_message(Message.query(Name.from_text("bit.flip.example."), RRType.A))
    )
    if position < len(wire):
        wire[position] = value
    try:
        decoded = decode_message(bytes(wire))
        # If it still parses, the structures must be self-consistent.
        assert decoded.question is not None
    except WireDecodeError:
        pass


def test_pointer_chain_bomb_rejected():
    """A ladder of compression pointers must hit the hop limit, not
    loop or recurse unboundedly."""
    header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
    # Pointers each pointing 2 bytes back, ending far before any label.
    ladder = b"".join(
        (0xC000 | offset).to_bytes(2, "big") for offset in range(12, 90, 2)
    )
    with pytest.raises(WireDecodeError):
        decode_message(header + ladder + b"\x00\x01\x00\x01")


def test_pointer_ladder_expanding_past_255_octets_rejected():
    """Each owner is one 63-octet label in front of a pointer to the
    owner before it: 65, 129, 193, 257 octets.  The 321-octet name five
    spelled-out labels need takes 337 bytes of datagram, this takes 321 --
    and too long is a *decode* error like any other."""
    rung = b"\x3f" + b"r" * 63
    wire = bytearray(b"\x00\x01\x80\x00\x00\x01\x00\x03\x00\x00\x00\x00" + rung + b"\x00\x00\x01\x00\x01")
    below = 12
    for _ in range(3):
        here = len(wire)
        wire += rung + (0xC000 | below).to_bytes(2, "big")
        wire += b"\x00\x01\x00\x01\x00\x00\x00\x00\x00\x04\x7f\x00\x00\x01"
        below = here
    assert len(wire) == 12 + 69 + 3 * 80
    with pytest.raises(WireDecodeError, match="257 octets on the wire"):
        decode_message(bytes(wire))
    wire[6:8] = b"\x00\x02"  # without the third record the rest is a fine message, bar its tail
    with pytest.raises(WireDecodeError, match="trailing bytes"):
        decode_message(bytes(wire))
    assert len(decode_message(bytes(wire[:-80])).answers) == 2


def test_enormous_rdlength_rejected():
    wire = bytearray(
        encode_message(Message.query(Name.from_text("big.example."), RRType.A))
    )
    # Claim a giant OPT RDLENGTH at the tail (last two bytes of the OPT
    # record's length field precede its empty payload).
    wire[-2:] = b"\xff\xff"
    with pytest.raises(WireDecodeError):
        decode_message(bytes(wire))
