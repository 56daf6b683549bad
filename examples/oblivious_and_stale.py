#!/usr/bin/env python3
"""Two deployment refinements from the paper's discussion (Section 6)
and the wider DNS-operations toolbox:

1. **Oblivious proxying**: a privacy proxy attributes queries to
   clients via salted one-way tokens -- its DCC instance polices fairly
   without ever telling the upstream who its clients are.
2. **Serve-stale (RFC 8767)**: when adversarial congestion (or here, a
   dead channel) stops fresh resolution, the resolver keeps answering
   popular names from expired cache entries -- an availability mitigation
   that composes with DCC.

Counting delivered messages per channel shows what the upstream
actually observes.

Run:  python examples/oblivious_and_stale.py
"""

from repro.dnscore.edns import ClientAttribution, OptionCode
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim import Network, Node, Simulator
from repro.server import (
    AuthoritativeServer,
    Forwarder,
    ForwarderConfig,
    RecursiveResolver,
    ResolverConfig,
)
from repro.workloads import build_root_zone, build_target_zone


class Stub(Node):
    def __init__(self, address):
        super().__init__(address)
        self.answers = {}

    def ask(self, via, name):
        query = Message.query(Name.from_text(name), RRType.A)
        self.send(via, query)
        return query.id

    def receive(self, message, src):
        self.answers[message.id] = message


def main():
    sim = Simulator(seed=3)
    net = Network(sim)

    root = AuthoritativeServer("10.0.0.1", zones=[
        build_root_zone({"target-domain.": ("ns1.target-domain.", "10.0.0.2")})])
    ans = AuthoritativeServer("10.0.0.2", zones=[
        build_target_zone("target-domain.", "ns1", "10.0.0.2", answer_ttl=2)])

    resolver = RecursiveResolver(
        "10.0.1.1", ResolverConfig(serve_stale_window=60.0))
    resolver.add_root_hint("a.root-servers.net.", "10.0.0.1")

    # The oblivious proxy: clients behind it are attributed upstream
    # only as salted tokens.
    # Generous upstream timeout: the resolver needs its own retry budget
    # (~1.6 s) before falling back to stale data.
    proxy = Forwarder("10.0.2.1", ForwarderConfig(
        upstreams=["10.0.1.1"], oblivious_salt="proxy-private-salt",
        query_timeout=5.0))

    alice, bob = Stub("10.1.0.1"), Stub("10.1.0.2")
    for node in (root, ans, resolver, proxy, alice, bob):
        net.attach(node)

    # Spy on attribution the upstream-facing wire would carry.
    tokens = []
    original = proxy.raw_send_query

    def spy(query, upstream):
        option = query.find_edns(OptionCode.CLIENT_ATTRIBUTION)
        if option is not None:
            tokens.append(ClientAttribution.decode(option).client)
        original(query, upstream)

    proxy.raw_send_query = spy

    # Count every delivered message per directed (src, dst) channel.
    channels = {}
    deliver = net._deliver

    def counting_deliver(src, dst, message):
        channels[(src, dst)] = channels.get((src, dst), 0) + 1
        deliver(src, dst, message)

    net._deliver = counting_deliver

    # --- Part 1: oblivious attribution -----------------------------
    q1 = alice.ask("10.0.2.1", "www.target-domain.")
    q2 = bob.ask("10.0.2.1", "mail1.wc.target-domain.")
    sim.run(until=1.0)
    print("oblivious attribution seen by the proxy's DCC / upstream:")
    for token in sorted(set(tokens)):
        print(f"  {token}   (real clients 10.1.0.1 / 10.1.0.2 never appear)")
    assert all("10.1.0." not in t for t in tokens)

    # --- Part 2: serve-stale under a dead channel -------------------
    net.detach("10.0.0.2")  # the victim's server becomes unreachable
    sim.run(until=4.0)  # let the 2-second TTL lapse
    q3 = alice.ask("10.0.2.1", "www.target-domain.")   # popular: cached once
    q4 = bob.ask("10.0.2.1", "fresh9.wc.target-domain.")  # never seen before
    sim.run(until=25.0)

    a3, a4 = alice.answers[q3], bob.answers[q4]
    print("\nwith the channel dead and TTLs expired:")
    print(f"  popular name (www):   {a3.rcode}"
          f"{'  <- served stale (RFC 8767)' if a3.rcode == RCode.NOERROR else ''}")
    print(f"  fresh random name:    {a4.rcode}   <- nothing cached, nothing to serve")
    print(f"  resolver stale responses: {resolver.stats.stale_responses}")

    print("\nbusiest channels:")
    for (src, dst), count in sorted(channels.items(), key=lambda kv: -kv[1])[:5]:
        print(f"{src:>15s} -> {dst:<15s} {count:8d} msgs")


if __name__ == "__main__":
    main()
