"""Wire-format codec with RFC 1035 name compression.

The simulator passes :class:`~repro.dnscore.message.Message` objects
around directly (serialisation would only burn CPU), but a real DCC
middlebox intercepts raw packets, so the library ships a faithful codec:

- names are compressed with 0xC0 pointers against earlier occurrences;
- all rdata types in :mod:`repro.dnscore.rdata` round-trip;
- EDNS options are carried in an OPT pseudo-record in the additional
  section, exactly as on the real wire.

The codec doubles as the source of truth for message sizes in transport
statistics and for property tests (encode-decode round-trips under
hypothesis).
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Dict, List, Optional, Tuple

from repro.dnscore.edns import EDNS_UDP_SIZE, EdnsOption
from repro.dnscore.errors import WireDecodeError
from repro.dnscore.message import Flags, Message, Question
from repro.dnscore.name import Name, ROOT
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


class _Writer:
    """Accumulates wire bytes and tracks name-compression offsets."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._length = 0
        self._name_offsets: Dict[Tuple[str, ...], int] = {}

    @property
    def length(self) -> int:
        return self._length

    def write(self, data: bytes) -> None:
        self._chunks.append(data)
        self._length += len(data)

    def write_u8(self, value: int) -> None:
        self.write(struct.pack("!B", value))

    def write_u16(self, value: int) -> None:
        self.write(struct.pack("!H", value & 0xFFFF))

    def write_u32(self, value: int) -> None:
        self.write(struct.pack("!I", value & 0xFFFFFFFF))

    def write_name(self, name: Name, compress: bool = True) -> None:
        """Emit ``name``, reusing a pointer to any previously written
        suffix when compression is allowed."""
        labels = name.labels
        for i in range(len(labels)):
            suffix = labels[i:]
            offset = self._name_offsets.get(suffix)
            if compress and offset is not None:
                self.write_u16(0xC000 | offset)
                return
            if self._length <= _MAX_POINTER_OFFSET:
                self._name_offsets[suffix] = self._length
            label = labels[i].encode("ascii")
            self.write_u8(len(label))
            self.write(label)
        self.write_u8(0)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    """Sequential reader with compression-pointer chasing."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read(self, count: int) -> bytes:
        if self.remaining() < count:
            raise WireDecodeError(f"truncated message: wanted {count} bytes, have {self.remaining()}")
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_u8(self) -> int:
        return self.read(1)[0]

    def read_u16(self) -> int:
        return struct.unpack("!H", self.read(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("!I", self.read(4))[0]

    def read_name(self) -> Name:
        labels: List[str] = []
        pos = self._pos
        jumped = False
        hops = 0
        while True:
            if pos >= len(self._data):
                raise WireDecodeError("name runs past end of message")
            length = self._data[pos]
            if length & 0xC0 == 0xC0:
                if pos + 1 >= len(self._data):
                    raise WireDecodeError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | self._data[pos + 1]
                if not jumped:
                    self._pos = pos + 2
                    jumped = True
                if target >= pos:
                    raise WireDecodeError("compression pointer does not point backwards")
                pos = target
                hops += 1
                if hops > 128:
                    raise WireDecodeError("compression pointer loop")
            elif length == 0:
                if not jumped:
                    self._pos = pos + 1
                return Name(tuple(labels)) if labels else ROOT
            elif length & 0xC0:
                raise WireDecodeError(f"reserved label type 0x{length:02x}")
            else:
                start = pos + 1
                end = start + length
                if end > len(self._data):
                    raise WireDecodeError("label runs past end of message")
                try:
                    labels.append(self._data[start:end].decode("ascii"))
                except UnicodeDecodeError as exc:
                    raise WireDecodeError(f"non-ascii label bytes: {exc}") from exc
                pos = end


# ----------------------------------------------------------------------
# rdata codecs
# ----------------------------------------------------------------------

def _encode_rdata(writer: _Writer, rdata: RData) -> None:
    """Append RDLENGTH + RDATA for ``rdata``.

    Names inside rdata are written uncompressed: RFC 3597 forbids
    compressing names in newer types, and doing so uniformly keeps
    RDLENGTH computable before writing.
    """
    body = _Writer()
    if isinstance(rdata, AData):
        body.write(ipaddress.IPv4Address(rdata.address).packed)
    elif isinstance(rdata, AAAAData):
        body.write(ipaddress.IPv6Address(rdata.address).packed)
    elif isinstance(rdata, (NSData, CNAMEData, PTRData)):
        body.write_name(rdata.target, compress=False)
    elif isinstance(rdata, SOAData):
        body.write_name(rdata.mname, compress=False)
        body.write_name(rdata.rname, compress=False)
        for value in (rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum):
            body.write_u32(value)
    elif isinstance(rdata, MXData):
        body.write_u16(rdata.preference)
        body.write_name(rdata.exchange, compress=False)
    elif isinstance(rdata, NSECData):
        body.write_name(rdata.next_name, compress=False)
        body.write_u16(0)  # empty type bitmap (simplified NSEC)
    elif isinstance(rdata, TXTData):
        text = rdata.text.encode("utf-8")
        for i in range(0, max(len(text), 1), 255):
            chunk = text[i : i + 255]
            body.write_u8(len(chunk))
            body.write(chunk)
    else:
        raise WireDecodeError(f"cannot encode rdata type {type(rdata).__name__}")
    payload = body.getvalue()
    writer.write_u16(len(payload))
    writer.write(payload)


def _decode_rdata(reader: _Reader, rrtype: RRType, rdlength: int) -> RData:
    end = reader.pos + rdlength
    if rrtype == RRType.A:
        rdata: RData = AData(str(ipaddress.IPv4Address(reader.read(4))))
    elif rrtype == RRType.AAAA:
        rdata = AAAAData(str(ipaddress.IPv6Address(reader.read(16))))
    elif rrtype == RRType.NS:
        rdata = NSData(reader.read_name())
    elif rrtype == RRType.CNAME:
        rdata = CNAMEData(reader.read_name())
    elif rrtype == RRType.PTR:
        rdata = PTRData(reader.read_name())
    elif rrtype == RRType.SOA:
        mname = reader.read_name()
        rname = reader.read_name()
        serial, refresh, retry, expire, minimum = (
            reader.read_u32() for _ in range(5)
        )
        rdata = SOAData(mname, rname, serial, refresh, retry, expire, minimum)
    elif rrtype == RRType.MX:
        pref = reader.read_u16()
        rdata = MXData(pref, reader.read_name())
    elif rrtype == RRType.NSEC:
        next_name = reader.read_name()
        reader.read_u16()  # skip the (empty) type bitmap
        rdata = NSECData(next_name)
    elif rrtype == RRType.TXT:
        parts = []
        while reader.pos < end:
            length = reader.read_u8()
            try:
                parts.append(reader.read(length).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise WireDecodeError(f"invalid TXT bytes: {exc}") from exc
        rdata = TXTData("".join(parts))
    else:
        raise WireDecodeError(f"cannot decode rdata type {rrtype}")
    if reader.pos != end:
        raise WireDecodeError(f"rdata length mismatch for {rrtype}: {reader.pos} != {end}")
    return rdata


# ----------------------------------------------------------------------
# message codec
# ----------------------------------------------------------------------

def _encode_record(writer: _Writer, record: ResourceRecord) -> None:
    writer.write_name(record.name)
    writer.write_u16(int(record.rrtype))
    writer.write_u16(1)  # class IN
    writer.write_u32(record.ttl)
    _encode_rdata(writer, record.rdata)


def _encode_opt(writer: _Writer, options: List[EdnsOption], rcode: RCode) -> None:
    """EDNS OPT pseudo-record: root owner, TYPE=OPT, CLASS=payload size,
    TTL carries extended rcode bits (zero here: all our rcodes fit)."""
    writer.write_u8(0)  # root owner name
    writer.write_u16(int(RRType.OPT))
    writer.write_u16(EDNS_UDP_SIZE)
    writer.write_u32(0)
    body = _Writer()
    for opt in options:
        body.write_u16(opt.code)
        body.write_u16(len(opt.payload))
        body.write(opt.payload)
    payload = body.getvalue()
    writer.write_u16(len(payload))
    writer.write(payload)


def encode_message(message: Message) -> bytes:
    """Serialise ``message`` to RFC 1035 wire format."""
    writer = _Writer()
    writer.write_u16(message.id)
    flag_word = int(message.flags) | (int(message.opcode) << 11) | int(message.rcode)
    writer.write_u16(flag_word)
    writer.write_u16(1)  # QDCOUNT
    ancount = sum(len(rrset) for rrset in message.answers)
    nscount = sum(len(rrset) for rrset in message.authority)
    arcount = sum(len(rrset) for rrset in message.additional)
    if message.edns_options or True:
        # Always attach an OPT record: every server in this system is
        # EDNS-capable, and DCC relies on options being available.
        arcount += 1
    writer.write_u16(ancount)
    writer.write_u16(nscount)
    writer.write_u16(arcount)
    writer.write_name(message.question.name)
    writer.write_u16(int(message.question.rrtype))
    writer.write_u16(1)
    for section in (message.answers, message.authority, message.additional):
        for rrset in section:
            for record in rrset:
                _encode_record(writer, record)
    _encode_opt(writer, message.edns_options, message.rcode)
    return writer.getvalue()


def _decode_record(reader: _Reader) -> Tuple[Optional[ResourceRecord], List[EdnsOption]]:
    """Decode one record; OPT records come back as (None, options)."""
    name = reader.read_name()
    rrtype_raw = reader.read_u16()
    klass = reader.read_u16()
    ttl = reader.read_u32()
    rdlength = reader.read_u16()
    if rrtype_raw == int(RRType.OPT):
        end = reader.pos + rdlength
        options: List[EdnsOption] = []
        while reader.pos < end:
            code = reader.read_u16()
            length = reader.read_u16()
            options.append(EdnsOption(code, reader.read(length)))
        return None, options
    if klass != 1:
        raise WireDecodeError(f"unsupported class {klass}")
    rdata = _decode_rdata(reader, _enum(RRType, rrtype_raw, "record type"), rdlength)
    return ResourceRecord(name=name, ttl=ttl, rdata=rdata), []


def _enum(enum_type, value, what):
    """Enum conversion that reports malformed input as a decode error."""
    try:
        return enum_type(value)
    except ValueError as exc:
        raise WireDecodeError(f"unknown {what} {value}") from exc


def decode_message(data: bytes) -> Message:
    """Parse wire bytes back into a :class:`Message`.

    Adjacent records with the same (owner, type) are regrouped into
    RRsets per section.
    """
    reader = _Reader(data)
    msg_id = reader.read_u16()
    flag_word = reader.read_u16()
    qdcount = reader.read_u16()
    if qdcount != 1:
        raise WireDecodeError(f"expected exactly one question, got {qdcount}")
    ancount = reader.read_u16()
    nscount = reader.read_u16()
    arcount = reader.read_u16()
    qname = reader.read_name()
    qtype = _enum(RRType, reader.read_u16(), "question type")
    qclass = reader.read_u16()
    if qclass != 1:
        raise WireDecodeError(f"unsupported question class {qclass}")

    message = Message(
        question=Question(qname, qtype),
        id=msg_id,
        opcode=_enum(Opcode, (flag_word >> 11) & 0xF, "opcode"),
        flags=Flags(flag_word & 0x87F0),
        rcode=_enum(RCode, flag_word & 0xF, "rcode"),
    )

    def read_section(count: int, target: List[RRSet]) -> None:
        groups: Dict[Tuple[Name, RRType], RRSet] = {}
        for _ in range(count):
            record, options = _decode_record(reader)
            if record is None:
                message.edns_options.extend(options)
                continue
            key = (record.name, record.rrtype)
            if key not in groups:
                groups[key] = RRSet(record.name, record.rrtype)
                target.append(groups[key])
            groups[key].add(record)

    read_section(ancount, message.answers)
    read_section(nscount, message.authority)
    read_section(arcount, message.additional)
    if reader.remaining():
        raise WireDecodeError(f"{reader.remaining()} trailing bytes after message")
    return message
