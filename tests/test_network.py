"""Network fabric tests."""

import pytest

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.link import LinkSpec, Network
from repro.netsim.node import Node
from repro.netsim.sim import Simulator


class Sink(Node):
    def __init__(self, address):
        super().__init__(address)
        self.inbox = []

    def receive(self, message, src):
        self.inbox.append((self.now, message, src))


def make_net():
    sim = Simulator(seed=1)
    net = Network(sim)
    a, b = Sink("10.0.0.1"), Sink("10.0.0.2")
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


def q():
    return Message.query(Name.from_text("x.example."), RRType.A)


def test_delivery_with_latency():
    sim, net, a, b = make_net()
    net.set_link("10.0.0.1", "10.0.0.2", LinkSpec(latency=0.010))
    a.send("10.0.0.2", q())
    sim.run()
    assert len(b.inbox) == 1
    at, msg, src = b.inbox[0]
    assert at == pytest.approx(0.010)
    assert src == "10.0.0.1"


def test_default_link_used_when_unspecified():
    sim, net, a, b = make_net()
    a.send("10.0.0.2", q())
    sim.run()
    assert b.inbox[0][0] == pytest.approx(net.default_link.latency)


def test_unroutable_silently_dropped():
    sim, net, a, b = make_net()
    a.send("10.9.9.9", q())
    sim.run()
    assert net.stats.messages_unroutable == 1
    assert net.stats.messages_delivered == 0


def test_loss():
    sim, net, a, b = make_net()
    net.set_link("10.0.0.1", "10.0.0.2", LinkSpec(loss=1.0))
    for _ in range(5):
        a.send("10.0.0.2", q())
    sim.run()
    assert b.inbox == []
    assert net.stats.messages_lost == 5


def test_partial_loss_is_random_but_seeded():
    def run(seed):
        sim = Simulator(seed=seed)
        net = Network(sim)
        a, b = Sink("1"), Sink("2")
        net.attach(a)
        net.attach(b)
        net.set_link("1", "2", LinkSpec(loss=0.5))
        for _ in range(100):
            a.send("2", q())
        sim.run()
        return len(b.inbox)

    assert run(1) == run(1)  # deterministic
    assert 20 < run(1) < 80  # plausibly lossy


def test_duplicate_address_rejected():
    sim = Simulator()
    net = Network(sim)
    net.attach(Sink("10.0.0.1"))
    with pytest.raises(ValueError):
        net.attach(Sink("10.0.0.1"))


def test_detach():
    sim, net, a, b = make_net()
    net.detach("10.0.0.2")
    a.send("10.0.0.2", q())
    sim.run()
    assert net.stats.messages_unroutable == 1


def test_detach_clears_backrefs():
    sim, net, a, b = make_net()
    net.detach("10.0.0.2")
    assert b.network is None
    assert b.sim is None
    assert net.node("10.0.0.2") is None


def test_detached_node_can_reattach():
    sim, net, a, b = make_net()
    net.detach("10.0.0.2")
    other = Network(Simulator(seed=2))
    other.attach(b)  # stale back-references would make this ambiguous
    assert b.network is other


def test_detach_unknown_address_is_noop():
    sim, net, a, b = make_net()
    net.detach("10.9.9.9")
    assert net.node("10.0.0.1") is a


def test_jitter_spreads_arrivals():
    sim = Simulator(seed=3)
    net = Network(sim)
    a, b = Sink("1"), Sink("2")
    net.attach(a)
    net.attach(b)
    net.set_link("1", "2", LinkSpec(latency=0.001, jitter=0.005))
    for _ in range(20):
        a.send("2", q())
    sim.run()
    times = [t for t, _, _ in b.inbox]
    assert len(set(times)) > 1
    assert all(0.001 <= t <= 0.006 + 1e-9 for t in times)
