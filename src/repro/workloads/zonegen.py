"""Zone builders for the evaluation topologies and attack patterns.

These functions construct the zones the paper's Appendix A describes:
target zones with wildcard subtrees, CNAME-chain instances (Figure 12a),
and attacker zones with nested NS fan-outs (Figure 12b) -- plus the
graph-level validation (:func:`validate_zone_graph`) and random
delegation-graph builder (:func:`build_random_zone_graph`) the scenario
fuzzer drives.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dnscore.errors import ZoneError
from repro.dnscore.name import Name, NameLike, as_name
from repro.dnscore.rdata import CNAMEData, NSData, RRType
from repro.dnscore.zone import LookupStatus, Zone


class ZoneGraphError(ZoneError):
    """A generated zone graph is structurally unresolvable."""

#: an address no node is attached to: queries there vanish (timeout),
#: like the 127.0.0.1 placeholders in the paper's example zones
DEAD_ADDRESS = "203.0.113.254"


def build_root_zone(delegations: Dict[str, Tuple[str, str]], ttl: int = 3600) -> Zone:
    """The root zone, delegating each origin to (ns host name, address).

    The simulation collapses the root/TLD hierarchy into a single root
    that delegates the experiment domains directly; the delegation + glue
    TTLs are long, so root traffic is negligible after the first lookup,
    as in the real experiments.
    """
    root = Zone(".", default_ttl=ttl)
    root.add_soa(mname="a.root-servers.net.", rname="nstld.verisign-grs.com.")
    for origin_text, (ns_name, ns_address) in delegations.items():
        origin = as_name(origin_text)
        ns = as_name(ns_name)
        root.add_ns(origin, ns)
        root.add_a(ns, ns_address)
    return root


def build_target_zone(
    origin: NameLike,
    ns_name: NameLike,
    ns_address: str,
    wildcard_address: str = "192.0.2.10",
    answer_ttl: int = 1,
    negative_ttl: int = 1,
    ff_wildcard_address: str = DEAD_ADDRESS,
    ff_ttl: Optional[int] = None,
    signed: bool = False,
) -> Zone:
    """The victim domain's zone.

    Layout (mirroring Appendix A):

    - ``*.wc.<origin>`` -- wildcard for the WC pattern (TTL kept short so
      records "can be quickly evicted from resolvers' cache and
      re-queried");
    - nothing under ``nx.<origin>`` -- the NX pattern's NXDOMAIN source
      (and ``nx`` itself does not exist, so no empty-non-terminal NODATA);
    - ``*.ff.<origin>`` -- resolves the FF pattern's second-level
      nameserver names (``ns-t...``) to a dead address, so the amplified
      address lookups land on this zone's server and succeed, while the
      follow-up queries to those "servers" go nowhere;
    - apex NS + glue for the hosting server.
    """
    zone = Zone(origin, default_ttl=answer_ttl, signed=signed)
    zone.add_soa(negative_ttl=negative_ttl, ttl=answer_ttl)
    zone.add_ns("@", ns_name, ttl=3600)
    zone.add_a(ns_name, ns_address, ttl=3600)
    zone.add_wildcard_a("wc", wildcard_address, ttl=answer_ttl)
    zone.add_wildcard_a("ff", ff_wildcard_address, ttl=ff_ttl if ff_ttl is not None else answer_ttl)
    zone.add_a("www", wildcard_address, ttl=answer_ttl)
    zone.add_txt("@", "reproduction target zone")
    return zone


def add_cq_instances(
    zone: Zone,
    instances: int,
    chain_len: int = 16,
    labels: int = 15,
    terminal_address: str = "192.0.2.20",
    ttl: int = 1,
) -> None:
    """Install CQ (CNAME chain x QMIN) instances per Figure 12a.

    Instance ``i`` is a chain of ``chain_len`` links; every owner and
    target has ``labels`` numeric labels before the ``r{k}-{i}`` label,
    so a QNAME-minimising resolver spends ~``labels`` queries per link.
    """
    prefix = tuple(str(labels - k) for k in range(labels))

    def link_name(step: int, instance: int) -> Name:
        return Name(prefix + (f"r{step}-{instance}",)).concat(zone.origin)

    for instance in range(instances):
        for step in range(1, chain_len):
            zone.add_cname(link_name(step, instance), link_name(step + 1, instance), ttl=ttl)
        zone.add_a(link_name(chain_len, instance), terminal_address, ttl=ttl)


def build_ff_attacker_zone(
    origin: NameLike,
    target_origin: NameLike,
    ns_name: NameLike,
    ns_address: str,
    instances: int,
    fanout: int = 7,
    ttl: int = 1,
) -> Zone:
    """The attacker-controlled zone with nested NS fan-out (Figure 12b).

    The apex (SOA, NS and glue A) plus :func:`add_ff_delegations`.
    Resolving ``q-{i}`` costs the resolver ~fanout^2 address lookups
    against the *target's* authoritative server -- amplification directed
    at a channel the attacker does not own.
    """
    zone = Zone(origin, default_ttl=ttl)
    zone.add_soa(negative_ttl=ttl, ttl=ttl)
    zone.add_ns("@", ns_name, ttl=3600)
    zone.add_a(ns_name, ns_address, ttl=3600)
    add_ff_delegations(zone, target_origin, instances, fanout, ttl)
    return zone


def add_ff_delegations(zone: Zone, target_origin: NameLike, instances: int, fanout: int, ttl: int) -> None:
    """Install the FF fan-out under ``zone``: ``instances * fanout * (fanout + 1)`` NS records.

    - ``q-{i}`` is delegated (glue-less) to ``ns-a{j}-{i}`` for
      ``j in [1, fanout]``;
    - each ``ns-a{j}-{i}`` is in turn delegated (glue-less) to ``fanout``
      names under ``ff.<target zone>``.

    Each name is built once and serves as both owner and NS target.
    """
    origin = zone.origin
    ff = as_name(target_origin).child("ff")  # one parent shared by every leaf
    for instance in range(instances):
        q_owner = origin.child(f"q-{instance}")
        for j in range(1, fanout + 1):
            mid = origin.child(f"ns-a{j}-{instance}")
            zone.add_ns(q_owner, mid, ttl=ttl)
            for k in range(1, fanout + 1):
                zone.add_ns(mid, ff.child(f"ns-t{j}{k}-{instance}"), ttl=ttl)


# ----------------------------------------------------------------------
# zone-graph validation
# ----------------------------------------------------------------------

def _deepest_enclosing(name: Name, zones: Dict[str, Zone]) -> Optional[Zone]:
    """The graph zone that would serve ``name`` (longest matching origin)."""
    best: Optional[Zone] = None
    for zone in zones.values():
        if name.is_subdomain_of(zone.origin):
            if best is None or len(zone.origin) > len(best.origin):
                best = zone
    return best


def _address_chaseable(
    name: Name,
    zones: Dict[str, Zone],
    _visited: Optional[set] = None,
    _depth: int = 0,
) -> bool:
    """Can a resolver chase ``name`` to an address within this graph?

    Follows CNAMEs, in-graph delegations, and glue.  A delegation that
    leaves the graph counts as chaseable iff at least one of its NS
    targets is itself chaseable (the resolver can find the servers; the
    subtree's content is out of scope).  Timeout-only addresses (e.g.
    :data:`DEAD_ADDRESS`) count as chaseable -- validation is about the
    *namespace* being well-formed, not about servers answering.
    """
    if _depth > 12:
        return False
    visited = _visited if _visited is not None else set()
    for rrtype in (RRType.A, RRType.AAAA):
        key = (name, rrtype)
        if key in visited:
            continue  # loop: this branch cannot produce an address
        visited.add(key)
        zone = _deepest_enclosing(name, zones)
        if zone is None:
            continue
        result = zone.lookup(name, rrtype)
        if result.status is LookupStatus.ANSWER:
            return True
        if result.status is LookupStatus.CNAME:
            target = result.answers[0].records[0].rdata
            assert isinstance(target, CNAMEData)
            if _address_chaseable(target.target, zones, visited, _depth + 1):
                return True
            continue
        if result.status is LookupStatus.DELEGATION:
            # In-graph glue for the name itself settles it immediately.
            for rrset in result.additional:
                if rrset.name == name and rrset.rrtype in (RRType.A, RRType.AAAA):
                    return True
            # Out-of-graph delegation: the chase can continue as long as
            # the cut's servers are locatable.
            ns_rrset = result.authority[0]
            for record in ns_rrset:
                assert isinstance(record.rdata, NSData)
                if _address_chaseable(record.rdata.target, zones, visited, _depth + 1):
                    return True
    return False


def validate_zone_graph(zones: Iterable[Zone]) -> Dict[str, Zone]:
    """Reject structurally unresolvable zone graphs with a clear error.

    Checks, raising :class:`ZoneGraphError` on the first failure:

    - **duplicate zones** -- two zones claiming the same origin;
    - **duplicate/conflicting owners** -- a CNAME coexisting with other
      data at one owner, or non-glue data occluded below a zone cut
      (both are what a buggy generator emitting the same owner twice
      looks like, and both make lookups silently shadow records);
    - **missing SOA** -- negative answers need one;
    - **dangling delegations** -- a zone cut (or apex NS) none of whose
      NS targets can be chased to any address record in the graph, via
      glue, CNAMEs, or other graph zones.  Pre-validation, such graphs
      built fine and simply timed out every query under the cut.

    Returns the origin-text -> zone mapping for convenience.
    """
    by_origin: Dict[str, Zone] = {}
    for zone in zones:
        origin_text = str(zone.origin)
        if origin_text in by_origin:
            raise ZoneGraphError(f"duplicate zone origin {origin_text}")
        by_origin[origin_text] = zone

    for origin_text, zone in by_origin.items():
        try:
            zone.soa
        except ZoneError:
            raise ZoneGraphError(f"zone {origin_text} has no SOA record") from None
        cuts: List[Name] = []
        for owner in zone.owners():
            types = zone.rrsets_at(owner)
            if RRType.CNAME in types and len(types) > 1:
                raise ZoneGraphError(
                    f"duplicate owner {owner}: CNAME coexists with "
                    f"{sorted(t.name for t in types if t is not RRType.CNAME)} "
                    f"in zone {origin_text}"
                )
            if RRType.NS in types and owner != zone.origin:
                cuts.append(owner)
                occluded = [
                    t for t in types if t not in (RRType.NS, RRType.A, RRType.AAAA)
                ]
                if occluded:
                    raise ZoneGraphError(
                        f"duplicate owner {owner}: {sorted(t.name for t in occluded)} "
                        f"data at a zone cut is occluded by the delegation "
                        f"in zone {origin_text}"
                    )
        # Occluded data strictly below a cut (same-zone glue excepted).
        for owner in zone.owners():
            types = zone.rrsets_at(owner)
            for cut in cuts:
                if owner != cut and owner.is_subdomain_of(cut):
                    non_glue = [
                        t for t in types if t not in (RRType.A, RRType.AAAA)
                    ]
                    if non_glue:
                        raise ZoneGraphError(
                            f"duplicate owner {owner}: "
                            f"{sorted(t.name for t in non_glue)} data below "
                            f"the {cut} cut is unreachable in zone {origin_text}"
                        )

    for origin_text, zone in by_origin.items():
        for owner in list(zone.owners()):
            ns_rrset = zone.rrsets_at(owner).get(RRType.NS)
            if ns_rrset is None:
                continue
            targets = [
                record.rdata.target
                for record in ns_rrset
                if isinstance(record.rdata, NSData)
            ]
            if not any(_address_chaseable(target, by_origin) for target in targets):
                raise ZoneGraphError(
                    f"dangling delegation: no NS target of {owner} "
                    f"({', '.join(str(t) for t in targets)}) resolves to an "
                    f"address anywhere in the graph"
                )
    return by_origin


# ----------------------------------------------------------------------
# spec-driven random zone graphs (the scenario fuzzer's substrate)
# ----------------------------------------------------------------------

#: address plan for generated graphs (distinct from the 10.0.0.x
#: experiment plan so fuzz scenarios never collide with Figure 3 nodes)
GRAPH_ROOT_ADDR = "10.0.40.250"
GRAPH_INFRA_ADDR = "10.0.40.200"
GRAPH_INFRA_ORIGIN = "ns-pool."


def graph_server_addr(index: int) -> str:
    return f"10.0.40.{index + 1}"


def build_zone_graph(
    specs: List["ZoneNodeSpec"],
    validate: bool = True,
    omit_glueless_addresses: bool = False,
) -> "ZoneGraph":
    """Materialise a delegation graph from serializable node specs.

    Every spec'd zone gets its own authoritative address
    (:func:`graph_server_addr` by spec order); glueless delegations
    point at NS host names under the shared ``ns-pool.`` infrastructure
    zone, whose address records make the delegation chaseable.

    ``omit_glueless_addresses=True`` reproduces the historic generator
    bug this module's validation exists to catch: glueless NS hosts
    whose address records were never installed, yielding a graph that
    builds silently but times out every query under the cut.  It is
    kept only so the fuzzer's bug-injection mode and the checked-in
    regression corpus can demonstrate the failure; combine with
    ``validate=False`` to actually obtain the broken graph.
    """
    by_origin: Dict[str, "_ZoneBuild"] = {}
    for index, spec in enumerate(specs):
        origin = as_name(spec.origin)
        if str(origin) in by_origin:
            raise ZoneGraphError(f"duplicate zone spec origin {spec.origin}")
        by_origin[str(origin)] = _ZoneBuild(spec, origin, graph_server_addr(index))

    root = Zone(".", default_ttl=3600)
    root.add_soa(mname="a.root-servers.net.", rname="hostmaster.root.")
    infra = Zone(GRAPH_INFRA_ORIGIN, default_ttl=3600)
    infra.add_soa()
    infra.add_ns("@", "ns")
    infra.add_a("ns", GRAPH_INFRA_ADDR)
    root.add_ns(GRAPH_INFRA_ORIGIN, f"ns.{GRAPH_INFRA_ORIGIN}")
    root.add_a(f"ns.{GRAPH_INFRA_ORIGIN}", GRAPH_INFRA_ADDR)

    zones: Dict[str, Zone] = {}
    hosting: Dict[str, str] = {".": GRAPH_ROOT_ADDR, GRAPH_INFRA_ORIGIN: GRAPH_INFRA_ADDR}
    resolvable: Dict[str, List[Name]] = {}

    for glueless_index, build in enumerate(by_origin.values()):
        spec, origin, addr = build.spec, build.origin, build.addr
        parent_origin = str(origin.parent()) if len(origin) > 1 else "."
        parent_build = by_origin.get(parent_origin)
        if parent_origin not in (".",) and parent_build is None:
            raise ZoneGraphError(
                f"zone {spec.origin} has no parent zone {parent_origin} in the spec"
            )

        ttl = max(1, int(spec.ttl))
        zone = Zone(origin, default_ttl=ttl)
        zone.add_soa(negative_ttl=ttl, ttl=ttl)
        if spec.glueless:
            ns_host = as_name(f"ns-{glueless_index}.{GRAPH_INFRA_ORIGIN}")
            if not omit_glueless_addresses:
                infra.add_a(ns_host, addr)
        else:
            ns_host = origin.child("ns")
            zone.add_a(ns_host, addr, ttl=3600)
        zone.add_ns("@", ns_host, ttl=3600)

        names: List[Name] = []
        for j in range(max(0, int(spec.leaf_names))):
            leaf = origin.child(f"host{j}")
            zone.add_a(leaf, f"192.0.2.{(j % 200) + 10}", ttl=ttl)
            names.append(leaf)
        if spec.wildcard:
            zone.add_wildcard_a("wc", "192.0.2.8", ttl=ttl)
        if spec.chain_len > 0:
            for step in range(spec.chain_len):
                owner = origin.child(f"c{step}")
                if step + 1 < spec.chain_len:
                    zone.add_cname(owner, origin.child(f"c{step + 1}"), ttl=ttl)
                else:
                    zone.add_a(owner, "192.0.2.9", ttl=ttl)
            names.append(origin.child("c0"))

        # Delegate from the parent (root or the spec'd parent zone).
        if parent_build is None:
            root.add_ns(origin, ns_host)
            if not spec.glueless:
                root.add_a(ns_host, addr)
        else:
            build.delegation_from_parent = (ns_host, addr)

        zones[str(origin)] = zone
        hosting[str(origin)] = addr
        resolvable[str(origin)] = names

    # Second pass: in-tree delegations (parents now all exist).
    for build in by_origin.values():
        if build.delegation_from_parent is None:
            continue
        ns_host, addr = build.delegation_from_parent
        parent_zone = zones[str(build.origin.parent())]
        parent_zone.add_ns(build.origin, ns_host)
        if not build.spec.glueless:
            parent_zone.add_a(ns_host, addr)

    all_zones = {".": root, GRAPH_INFRA_ORIGIN: infra, **zones}
    if validate:
        validate_zone_graph(all_zones.values())
    return ZoneGraph(zones=all_zones, hosting=hosting, resolvable=resolvable)


class ZoneNodeSpec:
    """One zone of a generated delegation graph (plain, serializable)."""

    __slots__ = ("origin", "glueless", "wildcard", "chain_len", "leaf_names", "ttl")

    def __init__(
        self,
        origin: str,
        glueless: bool = False,
        wildcard: bool = False,
        chain_len: int = 0,
        leaf_names: int = 2,
        ttl: int = 4,
    ) -> None:
        self.origin = origin
        self.glueless = glueless
        self.wildcard = wildcard
        self.chain_len = chain_len
        self.leaf_names = leaf_names
        self.ttl = ttl

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ZoneNodeSpec":
        return cls(**{str(k): v for k, v in data.items()})  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZoneNodeSpec) and self.to_dict() == other.to_dict()


class _ZoneBuild:
    __slots__ = ("spec", "origin", "addr", "delegation_from_parent")

    def __init__(self, spec: ZoneNodeSpec, origin: Name, addr: str) -> None:
        self.spec = spec
        self.origin = origin
        self.addr = addr
        self.delegation_from_parent: Optional[Tuple[Name, str]] = None


class ZoneGraph:
    """A built delegation graph: zones, hosting plan, resolvable names."""

    __slots__ = ("zones", "hosting", "resolvable")

    def __init__(
        self,
        zones: Dict[str, Zone],
        hosting: Dict[str, str],
        resolvable: Dict[str, List[Name]],
    ) -> None:
        #: origin text -> Zone (includes the root and ``ns-pool.``)
        self.zones = zones
        #: origin text -> authoritative server address
        self.hosting = hosting
        #: origin text -> names guaranteed to resolve to an address
        self.resolvable = resolvable

    def server_zones(self) -> Dict[str, List[Zone]]:
        """Authoritative address -> the zones it serves."""
        table: Dict[str, List[Zone]] = {}
        for origin, addr in self.hosting.items():
            table.setdefault(addr, []).append(self.zones[origin])
        return table


def random_zone_specs(
    rng: random.Random,
    max_zones: int = 3,
    max_depth: int = 2,
) -> List[ZoneNodeSpec]:
    """Draw a random delegation-graph spec from a seeded PRNG.

    Top-level zones are ``z<i>.``; each may carry a chain of child
    zones (``sub.z<i>.``, ``sub.sub.z<i>.`` ...) up to ``max_depth``,
    exercising multi-cut descent and glueless delegation handling.
    """
    specs: List[ZoneNodeSpec] = []
    zone_count = rng.randint(1, max(1, max_zones))
    for i in range(zone_count):
        origin = f"z{i}."
        depth = rng.randint(0, max(0, max_depth - 1))
        lineage = [origin] + [("sub." * d) + origin for d in range(1, depth + 1)]
        for level, zone_origin in enumerate(lineage):
            specs.append(
                ZoneNodeSpec(
                    origin=zone_origin,
                    glueless=rng.random() < 0.35,
                    wildcard=rng.random() < 0.5,
                    chain_len=rng.choice((0, 0, 2, 4)),
                    leaf_names=rng.randint(1, 3),
                    ttl=rng.choice((1, 2, 4, 8)),
                )
            )
    return specs
