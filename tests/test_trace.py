"""Message-trace tests."""

import gc
import tracemalloc

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RCode, RRType
from repro.netsim import Network, Node, Simulator
from repro.netsim.trace import MessageTrace

from tests.conftest import build_topology


def test_records_delivered_messages():
    topo = build_topology()
    trace = MessageTrace(topo.net)
    topo.resolve("t.wc.target-domain.")
    # client->resolver, resolver->root, root->resolver,
    # resolver->ans, ans->resolver, resolver->client = 6 deliveries
    assert len(trace) == trace.count == 6


def test_tracing_is_passive():
    plain = build_topology()
    traced = build_topology()
    MessageTrace(traced.net)
    r1 = plain.resolve("same.wc.target-domain.")
    r2 = traced.resolve("same.wc.target-domain.")
    assert r1.rcode == r2.rcode == RCode.NOERROR
    assert plain.resolver.stats.queries_sent == traced.resolver.stats.queries_sent


class _Sink(Node):
    def receive(self, message, src):
        pass


def test_digest_memory_is_constant():
    """The trace retains under 64 KiB after 20 000 deliveries.

    Planted bug this catches: drop the flush in ``_traced_deliver`` (an
    unbounded line buffer) and the 20 000 buffered lines hold ~2.5 MiB.
    """
    sim = Simulator(seed=1)
    net = Network(sim)
    net.attach(_Sink("10.0.0.2"))
    query = Message.query(Name.from_text("www.target-domain."), RRType.A)
    answer = query.make_response(RCode.NXDOMAIN)
    trace = MessageTrace(net)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            sim.now = i * 1e-3
            net._deliver("10.0.0.1", "10.0.0.2", query)
            net._deliver("10.0.0.2", "10.0.0.1", answer)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert retained < 64 * 1024, f"trace retains {retained} B after 20 000 deliveries"
