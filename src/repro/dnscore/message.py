"""DNS messages.

A :class:`Message` models the RFC 1035 message: header (ID, flags,
rcode), one question, and answer/authority/additional sections of
:class:`~repro.dnscore.rrset.RRSet`.  EDNS options ride in
``msg.edns_options`` (conceptually the OPT pseudo-record in the
additional section; the wire codec serialises them as such).

Messages are mutable while being built and treated as immutable once
sent; helpers construct the response shapes the servers need (answers,
referrals, negative answers, error responses).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.dnscore.edns import EdnsOption, find_option
from repro.dnscore.name import Name
from repro.dnscore.rdata import Opcode, RCode, RRType
from repro.dnscore.rrset import RRSet

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Monotone message IDs; deterministic across runs.

    Simulation-internal IDs use a 31-bit space so that in-flight-table
    keys never collide even in very long runs; the wire codec truncates
    to the protocol's 16 bits on encode.
    """
    return next(_message_ids) & 0x7FFFFFFF


class Flags(enum.IntFlag):
    """Header flag bits (QR/AA/TC/RD/RA in their RFC 1035 positions)."""

    QR = 0x8000
    AA = 0x0400
    TC = 0x0200
    RD = 0x0100
    RA = 0x0080


# Flag tests read ``flags._value_`` against these masks: ``IntFlag.__and__``
# and ``__or__`` build an enum member per call, on every message hop.
_QR, _TC, _RD = int(Flags.QR), int(Flags.TC), int(Flags.RD)
_NO_FLAGS = Flags(0)
_QUERY_RD = Flags.RD
_RESPONSE = Flags.QR
_RESPONSE_RD_RA = Flags.QR | Flags.RD | Flags.RA


class Question(NamedTuple):
    """The question section entry: (QNAME, QTYPE); IN class implied.

    Immutable (a query and all its responses share one) and, as a named
    tuple, built without a per-field ``object.__setattr__``.
    """

    name: Name
    rrtype: RRType

    def __str__(self) -> str:
        return f"{self.name} {self.rrtype}"

    def wire_length(self) -> int:
        return self.name.wire_length() + 4


@dataclass
class Message:
    """A DNS query or response."""

    question: Question
    id: int = field(default_factory=next_message_id)
    opcode: Opcode = Opcode.QUERY
    flags: Flags = _NO_FLAGS
    rcode: RCode = RCode.NOERROR
    answers: List[RRSet] = field(default_factory=list)
    authority: List[RRSet] = field(default_factory=list)
    additional: List[RRSet] = field(default_factory=list)
    edns_options: List[EdnsOption] = field(default_factory=list)
    #: transport marker: True = sent over a reliable stream (no size
    #: limit); False = datagram, subject to EDNS-size truncation
    via_tcp: bool = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def query(
        cls,
        name: Name,
        rrtype: RRType,
        recursion_desired: bool = True,
        msg_id: Optional[int] = None,
    ) -> "Message":
        flags = _QUERY_RD if recursion_desired else _NO_FLAGS
        if msg_id is None:
            msg_id = next_message_id()
        return cls(Question(name, rrtype), msg_id, flags=flags)

    def make_response(self, rcode: RCode = RCode.NOERROR) -> "Message":
        """A response skeleton echoing this query's ID and question."""
        flags = _RESPONSE_RD_RA if self.flags._value_ & _RD else _RESPONSE
        return Message(question=self.question, id=self.id, flags=flags, rcode=rcode)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def is_response(self) -> bool:
        return bool(self.flags._value_ & _QR)

    @property
    def is_query(self) -> bool:
        return not self.flags._value_ & _QR

    @property
    def is_truncated(self) -> bool:
        return bool(self.flags._value_ & _TC)

    def truncate(self) -> "Message":
        """A TC-flagged copy with all record sections dropped, as a UDP
        responder sends when the full answer exceeds the payload size
        (RFC 1035 / RFC 6891); the client retries over TCP."""
        return Message(
            question=self.question,
            id=self.id,
            opcode=self.opcode,
            flags=self.flags | Flags.TC,
            rcode=self.rcode,
            edns_options=list(self.edns_options),
        )

    @property
    def is_referral(self) -> bool:
        """A NOERROR response with no answer but NS records in authority
        (a delegation pointing the resolver at a child zone)."""
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and any(rrset.rrtype == RRType.NS for rrset in self.authority)
        )

    @property
    def is_nodata(self) -> bool:
        """NOERROR, empty answer, no delegation: the name exists but has
        no records of the queried type."""
        return (
            self.is_response
            and self.rcode == RCode.NOERROR
            and not self.answers
            and not self.is_referral
        )

    def answer_rrset(self, rrtype: Optional[RRType] = None) -> Optional[RRSet]:
        """First answer RRset, optionally filtered by type."""
        for rrset in self.answers:
            if rrtype is None or rrset.rrtype == rrtype:
                return rrset
        return None

    def find_edns(self, code: int) -> Optional[EdnsOption]:
        return find_option(self.edns_options, code)

    def wire_length(self) -> int:
        """Approximate uncompressed message size (for transport stats)."""
        size = 12 + self.question.wire_length()
        for rrset in self.answers:
            size += rrset.wire_length()
        for rrset in self.authority:
            size += rrset.wire_length()
        for rrset in self.additional:
            size += rrset.wire_length()
        if self.edns_options:
            size += 11
            for opt in self.edns_options:
                size += opt.wire_length()
        return size

    def section_counts(self) -> str:
        return (
            f"an={len(self.answers)} au={len(self.authority)} ad={len(self.additional)}"
        )

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        return f"<{kind} id={self.id} {self.question} {self.rcode} {self.section_counts()}>"
