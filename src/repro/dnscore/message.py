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
_QUERY_OPCODE = Opcode.QUERY


class Question(NamedTuple):
    """The question section entry: (QNAME, QTYPE); IN class implied.

    Immutable (a query and all its responses share one) and, as a named
    tuple, built without a per-field ``object.__setattr__``; the per-query
    constructors build it as ``tuple.__new__(Question, (name, rrtype))``,
    which skips the named tuple's Python-level ``__new__``.
    """

    name: Name
    rrtype: RRType

    def __str__(self) -> str:
        return f"{self.name} {self.rrtype}"

    def wire_length(self) -> int:
        return self.name.wire_length() + 4


class Message:
    """A DNS query or response.  Slotted (a resolved query builds four); an
    omitted section starts as a fresh list and an omitted ``id`` is drawn
    from :func:`next_message_id`."""

    __slots__ = ("question", "id", "opcode", "flags", "rcode", "answers", "authority", "additional",
                 "edns_options", "via_tcp")

    def __init__(
        self, question: Question, id: Optional[int] = None, opcode: Opcode = Opcode.QUERY, flags: Flags = _NO_FLAGS,
        rcode: RCode = RCode.NOERROR, answers: Optional[List[RRSet]] = None, authority: Optional[List[RRSet]] = None,
        additional: Optional[List[RRSet]] = None, edns_options: Optional[List[EdnsOption]] = None,
        via_tcp: bool = False,
    ) -> None:
        self.question = question
        self.id = next_message_id() if id is None else id
        self.opcode = opcode
        self.flags = flags
        self.rcode = rcode
        self.answers = [] if answers is None else answers
        self.authority = [] if authority is None else authority
        self.additional = [] if additional is None else additional
        self.edns_options = [] if edns_options is None else edns_options
        #: transport marker: True = sent over a reliable stream (no size
        #: limit); False = datagram, subject to EDNS-size truncation
        self.via_tcp = via_tcp

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
        return cls(tuple.__new__(Question, (name, rrtype)), msg_id, _QUERY_OPCODE, flags)

    def make_response(self, rcode: RCode = RCode.NOERROR) -> "Message":
        """A response skeleton echoing this query's ID and question."""
        flags = _RESPONSE_RD_RA if self.flags._value_ & _RD else _RESPONSE
        return Message(self.question, self.id, _QUERY_OPCODE, flags, rcode)

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
        return Message(self.question, self.id, self.opcode, self.flags | Flags.TC, self.rcode,
                       edns_options=list(self.edns_options))

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
