"""From-scratch DNS data model.

This subpackage implements the DNS substrate the paper's systems are
built on: domain names, resource records, messages with EDNS(0), a wire
codec with name compression, and authoritative zones with RFC-faithful
lookup semantics (wildcard synthesis, delegations, CNAME chains, negative
answers).

Nothing here depends on the network or the simulator; it is a pure data
layer shared by the authoritative server, resolvers, DCC, and the
workload generators.
"""

from repro.dnscore.rdata import RRType, RCode

__all__ = [
    "RRType",
    "RCode",
]
