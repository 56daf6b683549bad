#!/usr/bin/env python3
"""Quickstart: build a DNS world, resolve names, wrap the resolver in DCC.

Walks the public API end to end in under a minute:

1. create a virtual-time simulator and network;
2. host zones on authoritative servers (root + a target domain);
3. run a recursive resolver against them;
4. wrap the resolver with a DCC shim (fair queuing + monitoring);
5. send traffic and inspect what happened.

Run:  python examples/quickstart.py
"""

from repro.dcc import DccConfig, DccShim
from repro.dnscore import RCode, RRType
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.netsim import Network, Node, Simulator
from repro.server import AuthoritativeServer, RecursiveResolver, ResolverConfig
from repro.workloads import build_root_zone, build_target_zone


class MiniClient(Node):
    """The smallest possible stub: send a question, remember answers."""

    def __init__(self, address):
        super().__init__(address)
        self.answers = {}

    def ask(self, resolver, name, rrtype=RRType.A):
        query = Message.query(Name.from_text(name), rrtype)
        self.send(resolver, query)
        return query.id

    def receive(self, message, src):
        self.answers[message.id] = message


def main():
    # 1. Simulator + network: everything below runs in virtual time.
    sim = Simulator(seed=42)
    net = Network(sim)

    # 2. Authoritative side: a root zone delegating "target-domain." to
    #    a server that hosts a wildcard (*.wc) and answers everything
    #    else under nx. with NXDOMAIN.
    root_zone = build_root_zone({"target-domain.": ("ns1.target-domain.", "10.0.0.2")})
    target_zone = build_target_zone("target-domain.", "ns1", "10.0.0.2", answer_ttl=60)
    root = AuthoritativeServer("10.0.0.1", zones=[root_zone])
    ans = AuthoritativeServer("10.0.0.2", zones=[target_zone])

    # 3. A recursive resolver primed with a root hint.
    resolver = RecursiveResolver("10.0.1.1", ResolverConfig())
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")

    # 4. DCC wraps the resolver non-invasively and caps the channel to
    #    the authoritative server at 100 queries/second.
    shim = DccShim(resolver, DccConfig())
    shim.set_channel_capacity("10.0.0.2", rate=100.0)

    client = MiniClient("10.1.0.1")
    for node in (root, ans, resolver, client):
        net.attach(node)

    # 5. Traffic: one positive lookup, one negative, one cache hit.
    q1 = client.ask("10.0.1.1", "alpha.wc.target-domain.")
    q2 = client.ask("10.0.1.1", "ghost.nx.target-domain.")
    sim.run(until=1.0)
    q3 = client.ask("10.0.1.1", "alpha.wc.target-domain.")  # cached now
    sim.run(until=2.0)

    a1, a2, a3 = (client.answers[q] for q in (q1, q2, q3))
    print("positive lookup :", a1.rcode, "->",
          a1.answers[0].records[0].rdata.address)
    print("negative lookup :", a2.rcode)
    print("repeat lookup   :", a3.rcode,
          f"(cache hits so far: {resolver.cache.hits})")

    print("\nresolver sent", resolver.stats.queries_sent, "upstream queries;")
    print("DCC intercepted", shim.stats.queries_intercepted,
          "and scheduled", shim.stats.queries_scheduled, "of them")
    print("DCC is tracking", shim.monitor.tracked_clients(), "client(s)")

    assert a1.rcode == RCode.NOERROR
    assert a2.rcode == RCode.NXDOMAIN
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
