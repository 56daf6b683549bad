"""Zone fixtures that no driver builds, moved here verbatim from ``src/repro`` so only tests carry them."""

from __future__ import annotations

from typing import Dict

from repro.dnscore.name import as_name
from repro.dnscore.zone import Zone
from repro.workloads.zonegen import validate_zone_graph


def record_count(zone: Zone) -> int:
    """Records in ``zone`` (was ``Zone.record_count``)."""
    return sum(
        len(rrset) for types in zone._nodes.values() for rrset in types.values()
    )


def build_tld_hierarchy(
    domains: Dict[str, str],
    root_addr: str = "10.0.0.1",
) -> Dict[str, Zone]:
    """A full root -> TLD -> second-level delegation hierarchy.

    ``domains`` maps second-level origins (e.g. ``"victim.com."``) to
    their authoritative server addresses.  TLD zones are derived from
    the domains' final labels and hosted at deterministic addresses
    (``10.0.3.<i>``); the returned dict maps each zone origin text to
    its :class:`Zone`, including the root.

    The main experiments flatten root+TLD into one hop (the paper's
    testbed queries its own delegations directly); this builder exists
    for tests/examples that need real multi-cut descent, e.g. QNAME
    minimisation across several zone cuts.
    """
    zones: Dict[str, Zone] = {}
    root = Zone(".", default_ttl=3600)
    root.add_soa(mname="a.root-servers.net.", rname="nstld.example.")
    zones["."] = root

    tld_addresses: Dict[str, str] = {}
    next_tld_index = 1
    for origin_text, sld_addr in domains.items():
        origin = as_name(origin_text)
        if len(origin) < 2:
            raise ValueError(f"{origin} is not a second-level domain")
        tld = origin.parent()
        tld_text = str(tld)
        if tld_text not in zones:
            tld_addr = f"10.0.3.{next_tld_index}"
            next_tld_index += 1
            tld_addresses[tld_text] = tld_addr
            tld_zone = Zone(tld, default_ttl=3600)
            tld_zone.add_soa(mname=f"ns.{tld_text}", rname="hostmaster")
            tld_zone.add_ns("@", f"ns.{tld_text}")
            tld_zone.add_a(f"ns.{tld_text}", tld_addr)
            zones[tld_text] = tld_zone
            root.add_ns(tld, f"ns.{tld_text}")
            root.add_a(f"ns.{tld_text}", tld_addr)
        # Delegate the second-level domain inside its TLD, with glue.
        ns_name = as_name(f"ns1.{origin_text}")
        zones[tld_text].add_ns(origin, ns_name)
        zones[tld_text].add_a(ns_name, sld_addr)
    # The second-level zones themselves are the caller's to build, so a
    # graph check here can only cover the hierarchy's own delegations --
    # which glue makes chaseable by construction.  Validate anyway so a
    # future edit that breaks the glue fails loudly instead of building
    # a silently unresolvable hierarchy.
    validate_zone_graph(zones.values())
    return zones
