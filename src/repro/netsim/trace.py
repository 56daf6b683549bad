"""Streaming digest of the messages a network delivers.

A :class:`MessageTrace` hooks a :class:`~repro.netsim.link.Network` and
hashes one line per delivered DNS message (timestamp, endpoints,
question, kind, rcode, size) into one SHA-256 as it is delivered, via a
short buffer: constant memory however long the run.  The digest is the
determinism check of ``selfcheck``, the resilience matrix and ``scale``.
Tracing is passive: it never alters delivery, ordering, or timing.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.dnscore.message import _QR, Message
from repro.dnscore.rdata import RCode, RRType
from repro.netsim.link import Network

#: lines buffered before one hasher update (bounds what the trace holds)
FLUSH_LINES = 256

#: ``str(code)`` per response code, looked up once per delivery
_RCODE_TEXT = {code: str(code) for code in RCode}
#: the question's type as the line has always spelt it (``f"{rrtype}"``,
#: the expression ``Question.__str__`` formats), looked up once per delivery
_RRTYPE_TEXT = {rrtype: f"{rrtype}" for rrtype in RRType}


class MessageTrace:
    """Hashes every message a network delivers, in delivery order."""

    def __init__(self, network: Network) -> None:
        #: messages delivered since the trace was attached
        self.count = 0
        self._lines: List[str] = []
        self._hasher = hashlib.sha256()
        self._sim = network.sim
        self._original_deliver = network._deliver
        network._deliver = self._traced_deliver

    def _traced_deliver(self, src: str, dst: str, message: Message) -> None:
        # byte for byte ``str(question)`` and ``int(is_response)``, without
        # their frames (a name's text: labels joined, dot-terminated, root ".")
        name, rrtype = message.question
        self._lines.append(
            f"{self._sim.now:.9f}|{src}|{dst}|{'.'.join(name.labels)}. {_RRTYPE_TEXT[rrtype]}|"
            f"{1 if message.flags._value_ & _QR else 0}|"
            f"{_RCODE_TEXT[message.rcode]}|{message.wire_length()}\n"
        )
        self.count += 1
        if len(self._lines) >= FLUSH_LINES:
            self._flush()
        self._original_deliver(src, dst, message)

    def _flush(self) -> None:
        self._hasher.update("".join(self._lines).encode("utf-8"))
        self._lines.clear()

    def __len__(self) -> int:
        return self.count

    def sha256(self, events_processed: int) -> hashlib._Hash:
        """SHA-256 over every delivered message plus the run's event count.

        A copy of the running hasher: a caller may append its own lines
        before ``hexdigest()``, and may call this more than once.
        """
        self._flush()
        hasher = self._hasher.copy()
        hasher.update(f"events={events_processed}\nmessages={self.count}\n".encode("utf-8"))
        return hasher
