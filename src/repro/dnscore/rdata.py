"""Record types, response codes, and rdata payloads.

The set of record types is the subset the paper's scenarios exercise:
address records (A/AAAA) for glue and terminal answers, NS for
delegations and the FF amplification pattern, CNAME for chains (the CQ
pattern), SOA for negative answers, plus TXT/PTR/MX to make zones and
tests realistic, and OPT as the EDNS(0) pseudo-record carrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.dnscore.name import Name


class RRType(enum.IntEnum):
    """DNS RR TYPE values (RFC 1035 and successors)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    NSEC = 47
    OPT = 41
    ANY = 255

    def __str__(self) -> str:
        return self.name


class RCode(enum.IntEnum):
    """DNS response codes (RFC 1035 section 4.1.1 + RFC 6895)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5

    def __str__(self) -> str:
        return self.name

    @property
    def is_success(self) -> bool:
        """NOERROR and NXDOMAIN both count as *successful resolution*.

        The paper's effective-QPS metric (Figure 8 caption) counts
        NOERROR and NXDOMAIN responses as successes -- a definitive
        negative answer is still an answer.
        """
        return self in (RCode.NOERROR, RCode.NXDOMAIN)


class Opcode(enum.IntEnum):
    QUERY = 0
    NOTIFY = 4
    UPDATE = 5


class RData:
    """Base class for typed rdata payloads."""

    rrtype: RRType

    def wire_length(self) -> int:
        """Approximate uncompressed RDATA length in octets."""
        raise NotImplementedError


@dataclass(frozen=True)
class AData(RData):
    """IPv4 address rdata."""

    address: str
    rrtype: RRType = field(default=RRType.A, init=False, repr=False)

    def wire_length(self) -> int:
        return 4


@dataclass(frozen=True)
class AAAAData(RData):
    """IPv6 address rdata."""

    address: str
    rrtype: RRType = field(default=RRType.AAAA, init=False, repr=False)

    def wire_length(self) -> int:
        return 16


@dataclass(frozen=True)
class NSData(RData):
    """Nameserver rdata: the target server's host name."""

    target: Name
    rrtype: RRType = field(default=RRType.NS, init=False, repr=False)

    def wire_length(self) -> int:
        return self.target.wire_length()


@dataclass(frozen=True)
class CNAMEData(RData):
    """Canonical-name rdata: the alias target."""

    target: Name
    rrtype: RRType = field(default=RRType.CNAME, init=False, repr=False)

    def wire_length(self) -> int:
        return self.target.wire_length()


@dataclass(frozen=True)
class SOAData(RData):
    """Start-of-authority rdata; ``minimum`` doubles as the negative TTL
    (RFC 2308)."""

    mname: Name
    rname: Name
    serial: int = 1
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300

    rrtype: RRType = field(default=RRType.SOA, init=False, repr=False)

    def wire_length(self) -> int:
        return self.mname.wire_length() + self.rname.wire_length() + 20


@dataclass(frozen=True)
class TXTData(RData):
    """Text rdata (single string)."""

    text: str
    rrtype: RRType = field(default=RRType.TXT, init=False, repr=False)

    def wire_length(self) -> int:
        return len(self.text) + 1


@dataclass(frozen=True)
class PTRData(RData):
    """Pointer rdata."""

    target: Name
    rrtype: RRType = field(default=RRType.PTR, init=False, repr=False)

    def wire_length(self) -> int:
        return self.target.wire_length()


@dataclass(frozen=True)
class MXData(RData):
    """Mail-exchange rdata."""

    preference: int
    exchange: Name
    rrtype: RRType = field(default=RRType.MX, init=False, repr=False)

    def wire_length(self) -> int:
        return 2 + self.exchange.wire_length()


@dataclass(frozen=True)
class NSECData(RData):
    """Authenticated denial of existence (simplified NSEC, RFC 4034).

    The record's owner is the canonically-previous existing name and
    ``next_name`` the canonically-next one: nothing exists between them.
    Signed zones attach it to NXDOMAIN answers, enabling RFC 8198
    aggressive negative caching -- the countermeasure the paper cites
    against pseudo-random-subdomain floods (Section 2.3).  Signature
    material is abstracted away (the simulation's adversary cannot forge
    messages; anti-spoofing is assumed, Section 3.1).
    """

    next_name: Name
    rrtype: RRType = field(default=RRType.NSEC, init=False, repr=False)

    def wire_length(self) -> int:
        return self.next_name.wire_length() + 2


@dataclass(frozen=True)
class OPTData(RData):
    """EDNS(0) OPT pseudo-record payload: raw option list.

    Options are ``(code, payload_bytes)`` pairs; the typed view lives in
    :mod:`repro.dnscore.edns`.
    """

    options: Tuple[Tuple[int, bytes], ...] = ()
    rrtype: RRType = field(default=RRType.OPT, init=False, repr=False)

    def wire_length(self) -> int:
        return sum(4 + len(payload) for _, payload in self.options)
