"""Resource records and RRsets.

An :class:`RRSet` groups all records sharing an owner name, class, and
type (RFC 2181 section 5) -- the unit of caching and of zone lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.dnscore.name import Name
from repro.dnscore.rdata import RData, RRType


@dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record (IN class is implied throughout)."""

    name: Name
    ttl: int
    rdata: RData

    @property
    def rrtype(self) -> RRType:
        return self.rdata.rrtype

    def wire_length(self) -> int:
        """Uncompressed wire size: owner + TYPE/CLASS/TTL/RDLENGTH + rdata."""
        return self.name.wire_length() + 10 + self.rdata.wire_length()

    def with_name(self, name: Name) -> "ResourceRecord":
        """Copy with a different owner name (wildcard synthesis)."""
        return ResourceRecord(name=name, ttl=self.ttl, rdata=self.rdata)

    def to_text(self) -> str:
        return f"{self.name} {self.ttl} IN {self.rrtype} {self.rdata.to_text()}"

    def __str__(self) -> str:
        return self.to_text()


class RRSet:
    """All records with the same (owner, type).

    The TTL of the set is the minimum record TTL, which is what caches
    must honour.  It, the wire size, the NS targets and the addresses are
    computed on first use and kept until :meth:`add`, the only mutator,
    appends a record.
    """

    __slots__ = ("name", "rrtype", "_records", "_ttl", "_wire_len", "_ns_targets", "_addresses")

    def __init__(self, name: Name, rrtype: RRType, records: Iterable[ResourceRecord] = ()) -> None:
        self.name = name
        self.rrtype = rrtype
        self._records: List[ResourceRecord] = []
        self._ttl: Optional[int] = None
        self._wire_len: Optional[int] = None
        self._ns_targets: Optional[Tuple[Name, ...]] = None
        self._addresses: Optional[Tuple[str, ...]] = None
        for rec in records:
            self.add(rec)

    @classmethod
    def of(cls, *records: ResourceRecord) -> "RRSet":
        if not records:
            raise ValueError("RRSet.of() needs at least one record")
        rrset = cls(records[0].name, records[0].rrtype)
        for rec in records:
            rrset.add(rec)
        return rrset

    def add(self, record: ResourceRecord) -> None:
        if record.name != self.name:
            raise ValueError(f"record owner {record.name} does not match RRSet owner {self.name}")
        if record.rrtype != self.rrtype:
            raise ValueError(f"record type {record.rrtype} does not match RRSet type {self.rrtype}")
        if record not in self._records:
            self._records.append(record)
            self._ttl = self._wire_len = self._ns_targets = self._addresses = None

    @property
    def records(self) -> Tuple[ResourceRecord, ...]:
        return tuple(self._records)

    @property
    def ttl(self) -> int:
        ttl = self._ttl
        if ttl is None:
            ttl = self._ttl = min(rec.ttl for rec in self._records)
        return ttl

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def wire_length(self) -> int:
        size = self._wire_len
        if size is None:
            size = self._wire_len = sum(rec.wire_length() for rec in self._records)
        return size

    @property
    def ns_targets(self) -> Tuple[Name, ...]:
        """Nameserver host names of an NS set (empty for any other type)."""
        targets = self._ns_targets
        if targets is None:
            targets = self._ns_targets = (
                tuple(rec.rdata.target for rec in self._records)  # type: ignore[attr-defined]
                if self.rrtype == RRType.NS
                else ()
            )
        return targets

    @property
    def addresses(self) -> Tuple[str, ...]:
        """Addresses of an A/AAAA set (empty for any other type)."""
        addresses = self._addresses
        if addresses is None:
            addresses = self._addresses = (
                tuple(rec.rdata.address for rec in self._records)  # type: ignore[attr-defined]
                if self.rrtype in (RRType.A, RRType.AAAA)
                else ()
            )
        return addresses

    def with_name(self, name: Name) -> "RRSet":
        """Copy the whole set under a new owner (wildcard synthesis)."""
        return RRSet(name, self.rrtype, (rec.with_name(name) for rec in self._records))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RRSet):
            return NotImplemented
        return (
            self.name == other.name
            and self.rrtype == other.rrtype
            and set(self._records) == set(other._records)
        )

    def __repr__(self) -> str:
        return f"RRSet({self.name} {self.rrtype} x{len(self._records)})"
