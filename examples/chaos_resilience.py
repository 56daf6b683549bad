#!/usr/bin/env python3
"""Fault injection walkthrough: a resolver rides out infrastructure chaos.

Builds a tiny root -> authoritative -> resolver topology, then throws
faults at it with the :class:`FaultInjector` while a client keeps
querying:

1. a **partition** cuts the resolver off from the authoritative server
   (queries time out, the resolver backs off the dead server);
2. the authoritative server **crashes and recovers** (losing its
   rate-limiter state, keeping its zones);
3. the **resolver itself crashes** mid-run -- its cache and learned
   server state die with the process, the root hints survive, and the
   next query walks the hierarchy from scratch.

Every fault is scheduled in virtual time and the run is fully
deterministic: same seed, same timeline, same outcome.

Run:  python examples/chaos_resilience.py
"""

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim import (
    FaultInjector,
    Network,
    Node,
    NodeOutage,
    Partition,
    Simulator,
)
from repro.server import AuthoritativeServer, RecursiveResolver
from repro.workloads import build_root_zone, build_target_zone

ROOT, ANS, RESOLVER = "10.0.0.1", "10.0.0.2", "10.0.1.1"


class Stub(Node):
    def __init__(self, address):
        super().__init__(address)
        self.answers = {}

    def ask(self, name):
        query = Message.query(Name.from_text(name), RRType.A)
        self.send(RESOLVER, query)
        return query.id

    def receive(self, message, src):
        self.answers[message.id] = message


def main():
    sim = Simulator(seed=11)
    net = Network(sim)

    root = AuthoritativeServer(ROOT, zones=[
        build_root_zone({"target-domain.": ("ns1.target-domain.", ANS)})])
    ans = AuthoritativeServer(ANS, zones=[
        build_target_zone("target-domain.", "ns1", ANS, answer_ttl=2)])
    resolver = RecursiveResolver(RESOLVER)
    resolver.add_root_hint("a.root-servers.net.", ROOT)
    client = Stub("10.1.0.1")
    for node in (root, ans, resolver, client):
        net.attach(node)

    injector = FaultInjector(net)
    # Phase 2: the authoritative server is unreachable for 2 seconds
    # (the cached answer bridges this one).
    injector.add_partition(Partition(a=RESOLVER, b=ANS, start=2.0, end=4.0))
    # Phase 3: it then crashes outright, long enough to outlast both the
    # cache TTL and the resolver's retries...
    injector.add_node_outage(NodeOutage(address=ANS, at=5.0, duration=2.0))
    # ...and finally the resolver itself dies and restarts.
    injector.add_node_outage(NodeOutage(address=RESOLVER, at=8.0, duration=0.5))

    outcomes = []

    def probe(label):
        qid = client.ask("www.target-domain.")

        def report():
            answer = client.answers.get(qid)
            rcode = answer.rcode.name if answer is not None else "no answer"
            outcomes.append((label, rcode))

        sim.schedule(1.9, report)

    sim.schedule_at(1.0, probe, "healthy")
    sim.schedule_at(3.0, probe, "partitioned (cached)")  # cache bridges it
    sim.schedule_at(5.2, probe, "ans crashed")           # retries exhausted
    sim.schedule_at(7.4, probe, "ans recovered")
    sim.schedule_at(8.1, probe, "resolver down")         # dropped on the floor
    sim.schedule_at(10.0, probe, "resolver restarted")   # cold cache, re-walks
    sim.run(until=13.0)

    print("fault timeline:")
    print(injector.render_timeline())
    print("\nprobe outcomes:")
    for label, rcode in outcomes:
        print(f"  {label:>18s}: {rcode}")

    root_walks = root.stats.queries_received
    print(f"\nroot queries: {root_walks} (the restarted resolver lost its "
          "cached delegation and re-walked from the hints)")
    assert [rcode for _, rcode in outcomes] == [
        "NOERROR",      # healthy
        "NOERROR",      # partition: the 2 s TTL covers the probe
        "SERVFAIL",     # ANS down past every retry
        "NOERROR",      # back up
        "no answer",    # resolver died holding the request; no SERVFAIL
        "NOERROR",      # restarted: hints survived, cache did not
    ]
    assert root_walks >= 2
    print("chaos walkthrough OK")


if __name__ == "__main__":
    main()
