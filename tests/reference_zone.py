"""Authoritative zones with RFC-faithful lookup semantics.

The lookup algorithm follows RFC 1034 section 4.3.2 as deployed by
modern authoritative servers:

- **delegations**: an NS RRset at a non-apex name is a zone cut; queries
  at or below the cut yield a referral with in-zone glue;
- **wildcard synthesis** (RFC 4592): ``*.<closest encloser>`` matches
  names that do not exist, producing answers under the queried owner --
  the "WC" pattern the paper's attackers and benign clients use to
  bypass caches with NOERROR answers;
- **empty non-terminals** exist (NODATA), they are not NXDOMAIN;
- **CNAMEs** are returned one link at a time (configurable chasing is the
  resolver's job), enabling the CQ amplification pattern;
- **negative answers** carry the SOA whose ``minimum`` bounds negative
  caching (RFC 2308).

Zones are also the substrate for the attack-pattern generators in
:mod:`repro.workloads.zonegen` (wildcards, CNAME chains, NS fan-out).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set

from repro.dnscore.errors import ZoneError
from repro.dnscore.name import Name, NameLike, as_name
from repro.dnscore.rdata import (
    AData,
    CNAMEData,
    NSData,
    RRType,
    SOAData,
    TXTData,
)
from repro.dnscore.rrset import ResourceRecord, RRSet


class LookupStatus(enum.Enum):
    """Outcome classes of an authoritative lookup."""

    ANSWER = "answer"
    CNAME = "cname"
    DELEGATION = "delegation"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    NOTZONE = "notzone"


@dataclass
class LookupResult:
    """What the zone found for a (qname, qtype) pair."""

    status: LookupStatus
    answers: List[RRSet] = field(default_factory=list)
    authority: List[RRSet] = field(default_factory=list)
    additional: List[RRSet] = field(default_factory=list)
    #: True when the answer was synthesised from a wildcard.
    wildcard: bool = False
    #: For DELEGATION: the owner of the zone cut.
    cut: Optional[Name] = None


class Zone:
    """One authoritative zone rooted at ``origin``.

    A ``signed`` zone attaches simplified NSEC denial ranges to its
    NXDOMAIN answers, enabling resolvers to do RFC 8198 aggressive
    negative caching (the Section 2.3 countermeasure to NX floods).
    """

    def __init__(self, origin: NameLike, default_ttl: int = 300, signed: bool = False) -> None:
        self.origin = as_name(origin)
        self.default_ttl = default_ttl
        self.signed = signed
        #: owner -> rrtype -> RRSet
        self._nodes: Dict[Name, Dict[RRType, RRSet]] = {}
        #: names that exist only as ancestors of record owners
        self._nonterminals: Set[Name] = set()
        self._sorted_names: Optional[list] = None  # canonical-order cache

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_record(self, record: ResourceRecord) -> None:
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        types = self._nodes.setdefault(record.name, {})
        rrset = types.get(record.rrtype)
        if rrset is None:
            types[record.rrtype] = RRSet.of(record)
        else:
            rrset.add(record)
        self._sorted_names = None  # invalidate the canonical-order cache
        # Register empty non-terminals between origin and the owner.
        ancestor = record.name
        while ancestor != self.origin:
            ancestor = ancestor.parent()
            if ancestor == self.origin:
                break
            self._nonterminals.add(ancestor)

    def add(self, name: NameLike, rdata, ttl: Optional[int] = None) -> ResourceRecord:
        """Convenience: build and insert a record; name may be relative
        text (no trailing dot) which is taken as zone-relative."""
        owner = self._absolute(name)
        record = ResourceRecord(owner, self.default_ttl if ttl is None else ttl, rdata)
        self.add_record(record)
        return record

    def add_soa(
        self,
        mname: NameLike = "ns1",
        rname: NameLike = "hostmaster",
        negative_ttl: int = 300,
        ttl: Optional[int] = None,
    ) -> ResourceRecord:
        soa = SOAData(
            mname=self._absolute(mname),
            rname=self._absolute(rname),
            minimum=negative_ttl,
        )
        return self.add(self.origin, soa, ttl=ttl)

    def add_a(self, name: NameLike, address: str, ttl: Optional[int] = None) -> ResourceRecord:
        return self.add(name, AData(address), ttl=ttl)

    def add_ns(self, name: NameLike, target: NameLike, ttl: Optional[int] = None) -> ResourceRecord:
        return self.add(name, NSData(self._absolute(target)), ttl=ttl)

    def add_cname(self, name: NameLike, target: NameLike, ttl: Optional[int] = None) -> ResourceRecord:
        return self.add(name, CNAMEData(self._absolute(target)), ttl=ttl)

    def add_txt(self, name: NameLike, text: str, ttl: Optional[int] = None) -> ResourceRecord:
        return self.add(name, TXTData(text), ttl=ttl)

    def add_wildcard_a(self, under: NameLike, address: str, ttl: Optional[int] = None) -> ResourceRecord:
        """Install ``*.<under>  A  <address>`` -- one wildcard record is
        all an attacker needs for cache-bypassing NOERROR floods
        (paper Section 2.3)."""
        under_name = self._absolute(under)
        return self.add(under_name.child("*"), AData(address), ttl=ttl)

    def _absolute(self, name: NameLike) -> Name:
        if isinstance(name, Name):
            return name
        text = name.strip()
        if text == "@":
            return self.origin
        if text.endswith("."):
            return Name.from_text(text)
        return Name.from_text(text).concat(self.origin)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def soa(self) -> RRSet:
        types = self._nodes.get(self.origin, {})
        soa = types.get(RRType.SOA)
        if soa is None:
            raise ZoneError(f"zone {self.origin} has no SOA")
        return soa

    def node_exists(self, name: Name) -> bool:
        return name in self._nodes or name in self._nonterminals or name == self.origin

    def owners(self) -> Iterator[Name]:
        return iter(self._nodes)

    def rrsets_at(self, name: NameLike) -> Dict[RRType, RRSet]:
        """All RRsets at one owner (empty dict when the owner has none);
        the zone-graph validator's raw view of a node."""
        return dict(self._nodes.get(self._absolute(name), {}))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, qname: NameLike, qtype: RRType) -> LookupResult:
        """Authoritative lookup per RFC 1034 section 4.3.2.

        Text names without a trailing dot are zone-relative, matching
        the builder API.
        """
        qname = self._absolute(qname)
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NOTZONE)

        cut = self._find_cut(qname)
        if cut is not None:
            return self._referral(cut)

        types = self._nodes.get(qname)
        if types is not None:
            return self._answer_from_node(qname, qname, types, qtype, wildcard=False)
        if qname in self._nonterminals or qname == self.origin:
            return self._nodata()

        # The name does not exist: try RFC 4592 wildcard synthesis at
        # *.<closest encloser>.
        closest = self._closest_encloser(qname)
        source = closest.child("*")
        wtypes = self._nodes.get(source)
        if wtypes is not None:
            return self._answer_from_node(qname, source, wtypes, qtype, wildcard=True)
        return self._nxdomain(qname)

    def _find_cut(self, qname: Name) -> Optional[Name]:
        """First zone cut on the path from just below the apex to qname."""
        # qname's own ancestors strictly below the apex, walked top-down
        below = list(islice(qname.ancestors(), len(qname) - len(self.origin)))
        for node in reversed(below):
            types = self._nodes.get(node)
            if types is not None and RRType.NS in types:
                return node
        return None

    def _closest_encloser(self, qname: Name) -> Name:
        for ancestor in qname.ancestors():
            if ancestor == qname:
                continue
            if self.node_exists(ancestor):
                return ancestor
            if ancestor == self.origin:
                break
        return self.origin

    def _answer_from_node(
        self,
        qname: Name,
        owner: Name,
        types: Dict[RRType, RRSet],
        qtype: RRType,
        wildcard: bool,
    ) -> LookupResult:
        def synth(rrset: RRSet) -> RRSet:
            return rrset.with_name(qname) if wildcard else rrset

        if qtype == RRType.ANY:
            answers = [synth(rrset) for rrset in types.values()]
            return LookupResult(LookupStatus.ANSWER, answers=answers, wildcard=wildcard)
        rrset = types.get(qtype)
        if rrset is not None:
            return LookupResult(LookupStatus.ANSWER, answers=[synth(rrset)], wildcard=wildcard)
        cname = types.get(RRType.CNAME)
        if cname is not None:
            return LookupResult(LookupStatus.CNAME, answers=[synth(cname)], wildcard=wildcard)
        return self._nodata(wildcard=wildcard)

    def _referral(self, cut: Name) -> LookupResult:
        ns_rrset = self._nodes[cut][RRType.NS]
        glue: List[RRSet] = []
        for record in ns_rrset:
            target = record.rdata.target  # type: ignore[union-attr]
            if target.is_subdomain_of(self.origin):
                for addr_type in (RRType.A, RRType.AAAA):
                    addr_rrset = self._nodes.get(target, {}).get(addr_type)
                    if addr_rrset is not None:
                        glue.append(addr_rrset)
        return LookupResult(
            LookupStatus.DELEGATION,
            authority=[ns_rrset],
            additional=glue,
            cut=cut,
        )

    def _nodata(self, wildcard: bool = False) -> LookupResult:
        return LookupResult(LookupStatus.NODATA, authority=[self.soa], wildcard=wildcard)

    def _nxdomain(self, qname: Optional[Name] = None) -> LookupResult:
        authority = [self.soa]
        if self.signed and qname is not None:
            authority.append(self._denial_range(qname))
        return LookupResult(LookupStatus.NXDOMAIN, authority=authority)

    def _denial_range(self, qname: Name) -> RRSet:
        """The NSEC record covering ``qname``: owner is the canonically
        previous existing name, rdata the next one (wrapping around the
        zone as the real NSEC chain does)."""
        import bisect

        from repro.dnscore.rdata import NSECData

        if self._sorted_names is None:
            existing = set(self._nodes) | self._nonterminals | {self.origin}
            names_sorted = sorted(existing, key=lambda n: n.canonical_key())
            self._sorted_names = (names_sorted, [n.canonical_key() for n in names_sorted])
        names, keys = self._sorted_names
        index = bisect.bisect_left(keys, qname.canonical_key())
        prev_name = names[index - 1] if index > 0 else names[-1]
        next_name = names[index % len(names)]
        ttl = self.soa.records[0].rdata.minimum  # negative TTL (RFC 2308)
        return RRSet.of(ResourceRecord(prev_name, ttl, NSECData(next_name)))
