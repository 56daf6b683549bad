"""Message tracing for debugging and analysis.

A :class:`MessageTrace` hooks a :class:`~repro.netsim.link.Network` and
records every DNS message it delivers: timestamp, endpoints, question,
kind, rcode, and size.  Filters keep traces small in big scenarios;
:meth:`summary` aggregates per-channel counts (handy to eyeball which
inter-server channel an attack is actually loading).

Tracing is passive: it never alters delivery, ordering, or timing.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.dnscore.message import Message
from repro.netsim.link import Network


class TraceRecord(NamedTuple):
    """One delivered message (a tuple: built once per delivery)."""

    time: float
    src: str
    dst: str
    question: str
    is_response: bool
    rcode: str
    wire_bytes: int

    def __str__(self) -> str:
        kind = "<-" if self.is_response else "->"
        return (
            f"{self.time:10.6f} {self.src:>15s} {kind} {self.dst:<15s} "
            f"{self.question} {self.rcode if self.is_response else ''}".rstrip()
        )


class MessageTrace:
    """Records messages delivered by a network, with optional filtering."""

    def __init__(
        self,
        network: Network,
        predicate: Optional[Callable[[str, str, Message], bool]] = None,
        max_records: int = 100_000,
    ) -> None:
        self.records: List[TraceRecord] = []
        self.dropped = 0
        self.predicate = predicate
        self.max_records = max_records
        self._network = network
        self._original_deliver = network._deliver
        network._deliver = self._traced_deliver

    def _traced_deliver(self, src: str, dst: str, message: Message) -> None:
        if self.predicate is None or self.predicate(src, dst, message):
            if len(self.records) < self.max_records:
                self.records.append(TraceRecord(
                    self._network.sim.now, src, dst, str(message.question),
                    message.is_response, str(message.rcode), message.wire_length()))
            else:
                self.dropped += 1
        self._original_deliver(src, dst, message)

    # ------------------------------------------------------------------
    # queries over the trace
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def between(self, src: str, dst: str) -> List[TraceRecord]:
        return [r for r in self.records if r.src == src and r.dst == dst]

    def channel_counts(self) -> Dict[Tuple[str, str], int]:
        """Messages per directed (src, dst) channel."""
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.src, record.dst)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def channel_bytes(self) -> Dict[Tuple[str, str], int]:
        """Wire bytes per directed (src, dst) channel."""
        totals: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.src, record.dst)
            totals[key] = totals.get(key, 0) + record.wire_bytes
        return totals

    def byte_ratio(self) -> Optional[float]:
        """Response-to-query wire-byte ratio across the whole trace.

        The classic amplification indicator: >1 means answers outweigh
        questions.  None when the trace holds no query bytes.
        """
        query_bytes = 0
        response_bytes = 0
        for record in self.records:
            if record.is_response:
                response_bytes += record.wire_bytes
            else:
                query_bytes += record.wire_bytes
        if query_bytes == 0:
            return None
        return response_bytes / query_bytes

    def sha256(self, events_processed: int) -> hashlib._Hash:
        """SHA-256 over every recorded message plus the run's event count.

        The determinism digest shared by ``selfcheck``, the resilience
        matrix and ``scale``: two same-seed runs must hash identically.
        Returns the hasher, so a caller can append its own lines before
        taking ``hexdigest()``.
        """
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(
                (
                    f"{record.time:.9f}|{record.src}|{record.dst}|{record.question}|"
                    f"{int(record.is_response)}|{record.rcode}|{record.wire_bytes}\n"
                ).encode("utf-8")
            )
        hasher.update(f"events={events_processed}\n".encode("utf-8"))
        hasher.update(f"messages={len(self.records)}\n".encode("utf-8"))
        return hasher

    def summary(self, top: int = 10) -> str:
        """The busiest channels, one per line, with byte totals."""
        byte_totals = self.channel_bytes()
        ranked = sorted(self.channel_counts().items(), key=lambda kv: -kv[1])
        lines = [
            f"{src:>15s} -> {dst:<15s} {count:8d} msgs {byte_totals[(src, dst)]:10d} B"
            for (src, dst), count in ranked[:top]
        ]
        ratio = self.byte_ratio()
        if ratio is not None:
            lines.append(f"response/query byte ratio: {ratio:.2f}")
        if self.dropped:
            lines.append(f"(+{self.dropped} records beyond max_records)")
        return "\n".join(lines)

    def dump(self, limit: int = 50) -> str:
        return "\n".join(str(record) for record in self.records[:limit])
