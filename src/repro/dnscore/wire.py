"""Wire-format codec with RFC 1035 name compression.

The simulator passes :class:`~repro.dnscore.message.Message` objects
around directly (serialisation would only burn CPU), but a real DCC
middlebox intercepts raw packets, so the library ships a faithful codec:

- names are compressed with 0xC0 pointers against earlier occurrences;
- all rdata types in :mod:`repro.dnscore.rdata` round-trip;
- EDNS options are carried in an OPT pseudo-record in the additional
  section, exactly as on the real wire.

Both directions are one pass (docs/TRANSPORT.md "Wire codec"): one
``bytearray`` and precompiled structs out; index arithmetic in, every
bound checked before the read and every malformed input rejected with
:class:`WireDecodeError` -- nothing else may leave
:func:`decode_message`, whose callers sit in socket callbacks.

The live fabric's ``NetworkStats.bytes_sent`` counts these bytes.  The
simulator's size is ``Message.wire_length()``, an *uncompressed
estimate* that adds the 11-byte OPT record only when options are
present (a plain ``a.example.`` query: 27 octets there, 38 here).
Simulated truncation reads it, so the outcome digests depend on it.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Callable, Dict, List, Tuple

from repro.dnscore.edns import EDNS_UDP_SIZE, EdnsOption
from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Flags, Message, Question
from repro.dnscore.name import MAX_NAME_LENGTH, Name, ROOT
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

_MAX_POINTER_OFFSET = 0x3FFF
_MAX_POINTER_HOPS = 128

_HEADER = struct.Struct("!6H")  # ID, flags, QD/AN/NS/ARCOUNT
_U16 = struct.Struct("!H")
_U16_PAIR = struct.Struct("!HH")  # QTYPE/QCLASS; option code/length
_RR_FIXED = struct.Struct("!HHIH")  # TYPE, CLASS, TTL, RDLENGTH
_SOA_TIMERS = struct.Struct("!5I")
#: OPT pseudo-record up to RDLENGTH: root owner, TYPE=OPT, CLASS=payload
#: size, TTL=0 (extended rcode bits: all our rcodes fit in the header)
_OPT_FIXED = b"\x00" + struct.pack("!HHI", RRType.OPT, EDNS_UDP_SIZE, 0)
_TYPE_OPT = int(RRType.OPT)

# enum members by wire value: a dict lookup instead of ``EnumMeta.__call__``, same value sets
_RRTYPES: Dict[int, RRType] = {int(member): member for member in RRType}
_OPCODES: Dict[int, Opcode] = {int(member): member for member in Opcode}
_RCODES: Dict[int, RCode] = {int(member): member for member in RCode}

#: the canonical spelling of each IPv4 octet (no sign, space or leading zero)
_OCTETS: Dict[str, int] = {str(value): value for value in range(256)}


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------

def _write_name(out: bytearray, offsets: Dict[Tuple[str, ...], int], labels: Tuple[str, ...]) -> None:
    """Append an owner/question name: a pointer to the longest suffix
    already written, else its labels, registering the first occurrence
    of each suffix that starts where a 14-bit pointer can still reach."""
    for i in range(len(labels)):
        suffix = labels[i:]
        offset = offsets.get(suffix)
        if offset is not None:
            out += _U16.pack(0xC000 | offset)
            return
        if len(out) <= _MAX_POINTER_OFFSET:
            offsets[suffix] = len(out)
        label = labels[i].encode("ascii")
        out.append(len(label))
        out += label
    out.append(0)


def _name_bytes(name: Name) -> bytes:
    """A name inside rdata, uncompressed: RFC 3597 forbids compressing
    names in newer types, and doing so uniformly keeps RDLENGTH known
    before anything is written.  (Label lengths are < 64: ASCII too.)"""
    return ("".join([chr(len(label)) + label for label in name.labels]) + "\0").encode("ascii")


def _ipv4_packed(address: str) -> bytes:
    try:
        a, b, c, d = address.split(".")
        return bytes((_OCTETS[a], _OCTETS[b], _OCTETS[c], _OCTETS[d]))
    except (KeyError, ValueError):
        # not four canonical decimal octets: ``ipaddress`` decides, and raises what it always raised
        return ipaddress.IPv4Address(address).packed


def _txt_bytes(rdata: TXTData) -> bytes:
    text = rdata.text.encode("utf-8")
    strings = [text[i : i + 255] for i in range(0, max(len(text), 1), 255)]
    return b"".join([bytes((len(string),)) + string for string in strings])


def _soa_bytes(rdata: SOAData) -> bytes:
    timers = (rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum)
    return _name_bytes(rdata.mname) + _name_bytes(rdata.rname) + _SOA_TIMERS.pack(*[t & 0xFFFFFFFF for t in timers])


_RDATA_ENCODERS: Dict[type, Callable[..., bytes]] = {
    AData: lambda rdata: _ipv4_packed(rdata.address),
    AAAAData: lambda rdata: ipaddress.IPv6Address(rdata.address).packed,
    NSData: lambda rdata: _name_bytes(rdata.target),
    CNAMEData: lambda rdata: _name_bytes(rdata.target),
    PTRData: lambda rdata: _name_bytes(rdata.target),
    SOAData: _soa_bytes,
    MXData: lambda rdata: _U16.pack(rdata.preference & 0xFFFF) + _name_bytes(rdata.exchange),
    # empty type bitmap (simplified NSEC)
    NSECData: lambda rdata: _name_bytes(rdata.next_name) + b"\x00\x00",
    TXTData: _txt_bytes,
}


def encode_message(message: Message) -> bytes:
    """Serialise ``message`` to RFC 1035 wire format.

    An OPT record is always attached: every server in this system is
    EDNS-capable, and DCC relies on options being available.
    """
    out = bytearray(12)
    offsets: Dict[Tuple[str, ...], int] = {}
    question = message.question
    _write_name(out, offsets, question.name.labels)
    out += _U16_PAIR.pack(int(question.rrtype) & 0xFFFF, 1)
    counts = []
    for section in (message.answers, message.authority, message.additional):
        count = 0
        for rrset in section:
            for record in rrset:
                rdata = record.rdata
                encoder = _RDATA_ENCODERS.get(type(rdata))
                if encoder is None:
                    raise WireDecodeError(f"cannot encode rdata type {type(rdata).__name__}")
                payload = encoder(rdata)
                _write_name(out, offsets, record.name.labels)
                out += _RR_FIXED.pack(int(rdata.rrtype) & 0xFFFF, 1, record.ttl & 0xFFFFFFFF, len(payload) & 0xFFFF)
                out += payload
                count += 1
        counts.append(count)
    options = b"".join([_U16_PAIR.pack(opt.code & 0xFFFF, len(opt.payload) & 0xFFFF) + opt.payload
                        for opt in message.edns_options])
    out += _OPT_FIXED
    out += _U16.pack(len(options) & 0xFFFF)
    out += options
    # Simulation-internal ids are 31-bit: every field is masked to its
    # wire width, because ``Struct.pack`` raises where it does not fit.
    flag_word = int(message.flags) | (int(message.opcode) << 11) | int(message.rcode)
    _HEADER.pack_into(out, 0, message.id & 0xFFFF, flag_word & 0xFFFF, 1,
                      counts[0] & 0xFFFF, counts[1] & 0xFFFF, (counts[2] + 1) & 0xFFFF)
    return bytes(out)


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------

#: per-message memo: offset a name starts at -> (the name, pointer hops its walk took).  ``data``
#: is immutable and so is a ``Name``: no entry can go stale, and the dict dies with the call.
_NameMemo = Dict[int, Tuple[Name, int]]


def _read_name(data: bytes, pos: int, memo: _NameMemo) -> Tuple[Name, int]:
    """The name starting at ``pos`` and the offset just past it.

    A pointer to an offset where a name of this message already started
    yields that name object (extended by any labels read before the
    pointer) without walking it again; the hops its walk took still
    count against the limit, so the memo changes no verdict.
    """
    size = len(data)
    start = pos
    after = 0  # offset past the name as written at ``start``; set at the first pointer
    hops = 0
    wire_len = 1
    labels: List[str] = []
    while True:
        if pos >= size:
            raise WireDecodeError("name runs past end of message")
        length = data[pos]
        if length >= 0xC0:
            if pos + 1 >= size:
                raise WireDecodeError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if target >= pos:
                raise WireDecodeError("compression pointer does not point backwards")
            after = after or pos + 2
            known = memo.get(target)
            hops += 1 if known is None else 1 + known[1]
            if hops > _MAX_POINTER_HOPS:
                raise WireDecodeError("compression pointer loop")
            if known is None:
                pos = target
                continue
            name = known[0]
            if labels:
                wire_len += name.wire_length() - 1
                if wire_len > MAX_NAME_LENGTH:
                    raise WireDecodeError(f"name would be {wire_len} octets on the wire")
                name = Name._derived(tuple(labels) + name.labels, wire_len)
            break
        if length == 0:
            after = after or pos + 1
            name = Name._derived(tuple(labels), wire_len) if labels else ROOT
            break
        if length > 63:
            raise WireDecodeError(f"reserved label type 0x{length:02x}")
        end = pos + 1 + length
        if end > size:
            raise WireDecodeError("label runs past end of message")
        wire_len += length + 1
        if wire_len > MAX_NAME_LENGTH:
            raise WireDecodeError(f"name would be {wire_len} octets on the wire")
        try:
            labels.append(data[pos + 1 : end].decode("ascii").lower())
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"non-ascii label bytes: {exc}") from exc
        pos = end
    memo[start] = (name, hops)
    return name, after


def _read_names(data: bytes, pos: int, end: int, memo: _NameMemo, count: int = 1, tail: int = 0) -> List[Name]:
    """``count`` names followed by ``tail`` fixed octets, filling
    ``data[pos:end]`` exactly (``end`` is inside the message)."""
    names = []
    for _ in range(count):
        name, pos = _read_name(data, pos, memo)
        names.append(name)
    if pos + tail != end:
        raise WireDecodeError(f"rdata length mismatch: {pos + tail} != {end}")
    return names


def _decode_a(data: bytes, pos: int, end: int, memo: _NameMemo) -> RData:
    if end - pos != 4:
        raise WireDecodeError(f"A rdata of {end - pos} octets")
    return AData("%d.%d.%d.%d" % tuple(data[pos:end]))


def _decode_aaaa(data: bytes, pos: int, end: int, memo: _NameMemo) -> RData:
    if end - pos != 16:
        raise WireDecodeError(f"AAAA rdata of {end - pos} octets")
    # ipaddress's text form: inet_ntop prints v4-mapped addresses differently
    return AAAAData(str(ipaddress.IPv6Address(data[pos:end])))


def _decode_soa(data: bytes, pos: int, end: int, memo: _NameMemo) -> RData:
    mname, rname = _read_names(data, pos, end, memo, 2, 20)
    return SOAData(mname, rname, *_SOA_TIMERS.unpack_from(data, end - 20))


def _decode_mx(data: bytes, pos: int, end: int, memo: _NameMemo) -> RData:
    if end - pos < 2:
        raise WireDecodeError("MX rdata shorter than its preference")
    return MXData(_U16.unpack_from(data, pos)[0], *_read_names(data, pos + 2, end, memo))


def _decode_txt(data: bytes, pos: int, end: int, memo: _NameMemo) -> RData:
    chunks = []
    while pos < end:
        chunk_end = pos + 1 + data[pos]
        if chunk_end > end:
            raise WireDecodeError("TXT character-string runs past its rdata")
        chunks.append(data[pos + 1 : chunk_end])
        pos = chunk_end
    try:
        # joined first: a multi-byte character may straddle two strings
        return TXTData(b"".join(chunks).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"invalid TXT bytes: {exc}") from exc


#: by TYPE; an ``IntEnum`` key is found by the plain ``int`` off the wire
_RDATA_DECODERS: Dict[int, Callable[[bytes, int, int, _NameMemo], RData]] = {
    RRType.A: _decode_a,
    RRType.AAAA: _decode_aaaa,
    RRType.NS: lambda data, pos, end, memo: NSData(*_read_names(data, pos, end, memo)),
    RRType.CNAME: lambda data, pos, end, memo: CNAMEData(*_read_names(data, pos, end, memo)),
    RRType.PTR: lambda data, pos, end, memo: PTRData(*_read_names(data, pos, end, memo)),
    RRType.SOA: _decode_soa,
    RRType.MX: _decode_mx,
    # the (empty) type bitmap's two octets are skipped, whatever they hold
    RRType.NSEC: lambda data, pos, end, memo: NSECData(*_read_names(data, pos, end, memo, tail=2)),
    RRType.TXT: _decode_txt,
}


def _read_options(data: bytes, pos: int, end: int, options: List[EdnsOption]) -> int:
    """Append an OPT record's options and return the offset past the last.
    One is read while it *starts* before ``end``, bounded by the message
    and not by RDLENGTH (kept from the first codec: a lying RDLENGTH is
    caught, if at all, by the trailing-bytes check)."""
    size = len(data)
    while pos < end:
        if pos + 4 > size:
            raise WireDecodeError("truncated EDNS option header")
        code, length = _U16_PAIR.unpack_from(data, pos)
        pos += 4 + length
        if pos > size:
            raise WireDecodeError("EDNS option runs past end of message")
        options.append(EdnsOption(code, data[pos - length : pos]))
    return pos


def decode_message(data: bytes) -> Message:
    """Parse wire bytes back into a :class:`Message`.

    Adjacent records with the same (owner, type) are regrouped into
    RRsets per section.  Raises :class:`WireDecodeError`, and nothing
    else, on input that is not a well-formed message.
    """
    size = len(data)
    if size < 12:
        raise WireDecodeError(f"truncated message: header needs 12 bytes, have {size}")
    msg_id, flag_word, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data)
    if qdcount != 1:
        raise WireDecodeError(f"expected exactly one question, got {qdcount}")
    memo: _NameMemo = {}
    qname, pos = _read_name(data, 12, memo)
    if pos + 4 > size:
        raise WireDecodeError("truncated question")
    qtype_raw, qclass = _U16_PAIR.unpack_from(data, pos)
    pos += 4
    qtype = _RRTYPES.get(qtype_raw)
    opcode = _OPCODES.get((flag_word >> 11) & 0xF)
    rcode = _RCODES.get(flag_word & 0xF)
    if qtype is None or opcode is None or rcode is None or qclass != 1:
        raise WireDecodeError(f"unsupported question: type {qtype_raw}, class {qclass}, flag word 0x{flag_word:04x}")

    message = Message(Question(qname, qtype), msg_id, opcode, Flags(flag_word & 0x87F0), rcode)
    options = message.edns_options
    for count, section in ((ancount, message.answers), (nscount, message.authority), (arcount, message.additional)):
        groups: Dict[Tuple[Name, RRType], RRSet] = {}
        for _ in range(count):
            name, pos = _read_name(data, pos, memo)
            if pos + 10 > size:
                raise WireDecodeError("truncated record header")
            rrtype_raw, klass, ttl, rdlength = _RR_FIXED.unpack_from(data, pos)
            pos += 10
            end = pos + rdlength
            if rrtype_raw == _TYPE_OPT:
                pos = _read_options(data, pos, end, options)
                continue
            decoder = _RDATA_DECODERS.get(rrtype_raw)
            if decoder is None or klass != 1 or end > size:
                raise WireDecodeError(f"undecodable record: type {rrtype_raw}, class {klass}, rdlength {rdlength}")
            rdata = decoder(data, pos, end, memo)
            pos = end
            key = (name, rdata.rrtype)
            rrset = groups.get(key)
            if rrset is None:
                rrset = groups[key] = RRSet(name, rdata.rrtype)
                section.append(rrset)
            rrset.add(ResourceRecord(name, ttl, rdata))
    if pos != size:
        raise WireDecodeError(f"{size - pos} trailing bytes after message")
    return message
