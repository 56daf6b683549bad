"""Fault-injection subsystem tests: lifecycle, shaping, schedules."""

import pytest

from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType
from repro.netsim.faults import FaultInjector, LinkDegradation, NodeOutage, Partition
from repro.netsim.link import LinkSpec, Network
from repro.netsim.node import Node
from repro.netsim.sim import Simulator

A_ADDR = "10.0.0.1"
B_ADDR = "10.0.0.2"


class Sink(Node):
    def __init__(self, address):
        super().__init__(address)
        self.inbox = []

    def receive(self, message, src):
        self.inbox.append((self.now, message, src))


def q():
    return Message.query(Name.from_text("x.example."), RRType.A)


def make_net(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    a, b = Sink(A_ADDR), Sink(B_ADDR)
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


class TestNodeLifecycle:
    def test_crash_and_recover_fire_hooks_in_order(self):
        order = []

        class Host(Sink):
            def on_crash(self):
                order.append("on_crash")

            def on_recover(self):
                order.append("on_recover")

        sim = Simulator()
        net = Network(sim)
        host = Host(A_ADDR)
        net.attach(host)
        host.crash_hooks.append(lambda: order.append("observer_crash"))
        host.recover_hooks.append(lambda: order.append("observer_recover"))

        host.crash()
        assert host.up is False
        host.recover()
        assert host.up is True
        assert order == ["on_crash", "observer_crash", "on_recover", "observer_recover"]

    def test_crash_is_idempotent(self):
        fired = []
        sim = Simulator()
        net = Network(sim)
        host = Sink(A_ADDR)
        net.attach(host)
        host.crash_hooks.append(lambda: fired.append("crash"))
        host.crash()
        host.crash()  # already down: no second state loss
        assert fired == ["crash"]
        host.recover()
        host.recover()
        assert host.up is True

    def test_down_node_receives_nothing(self):
        sim, net, a, b = make_net()
        b.crash()
        a.send(B_ADDR, q())
        sim.run()
        assert b.inbox == []
        assert net.stats.messages_dropped_down == 1
        b.recover()
        a.send(B_ADDR, q())
        sim.run()
        assert len(b.inbox) == 1

    def test_down_node_sends_nothing(self):
        sim, net, a, b = make_net()
        a.crash()
        a.send(B_ADDR, q())
        sim.run()
        assert b.inbox == []

    def test_message_in_flight_when_target_crashes_is_dropped(self):
        sim, net, a, b = make_net()
        net.set_link(A_ADDR, B_ADDR, LinkSpec(latency=0.010))
        a.send(B_ADDR, q())
        sim.schedule(0.005, b.crash)  # crashes while the message flies
        sim.run()
        assert b.inbox == []
        assert net.stats.messages_dropped_down == 1


class TestPartition:
    def test_cuts_both_directions_only_during_window(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_partition(Partition(a=A_ADDR, b=B_ADDR, start=1.0, end=2.0))

        sim.schedule_at(0.5, a.send, B_ADDR, q())   # before: passes
        sim.schedule_at(1.5, a.send, B_ADDR, q())   # during: cut
        sim.schedule_at(1.5, b.send, A_ADDR, q())   # reverse direction: cut
        sim.schedule_at(2.5, a.send, B_ADDR, q())   # healed: passes
        sim.run()

        assert len(b.inbox) == 2
        assert len(a.inbox) == 0
        assert injector.stats.partition_cuts == 2
        assert net.stats.messages_cut == 2

    def test_unrelated_traffic_unaffected(self):
        sim, net, a, b = make_net()
        c = Sink("10.0.0.3")
        net.attach(c)
        injector = FaultInjector(net)
        injector.add_partition(Partition(a=A_ADDR, b=B_ADDR, start=0.0, end=10.0))
        a.send("10.0.0.3", q())
        sim.run()
        assert len(c.inbox) == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Partition(a=A_ADDR, b=B_ADDR, start=2.0, end=2.0)


class TestLinkDegradation:
    def test_latency_ramps_linearly_to_peak(self):
        sim, net, a, b = make_net()
        net.set_link(A_ADDR, B_ADDR, LinkSpec(latency=0.001))
        injector = FaultInjector(net)
        injector.add_link_degradation(
            LinkDegradation(
                src=A_ADDR, dst=B_ADDR, start=0.0, end=20.0, latency=0.1, ramp=10.0
            )
        )
        sim.schedule_at(5.0, a.send, B_ADDR, q())    # mid-ramp: severity 0.5
        sim.schedule_at(15.0, a.send, B_ADDR, q())   # held at peak
        sim.schedule_at(25.0, a.send, B_ADDR, q())   # cleared
        sim.run()
        arrivals = [t for t, _, _ in b.inbox]
        assert arrivals[0] == pytest.approx(5.0 + 0.001 + 0.05)
        assert arrivals[1] == pytest.approx(15.0 + 0.001 + 0.1)
        assert arrivals[2] == pytest.approx(25.0 + 0.001)
        assert injector.stats.degraded_messages == 2

    def test_full_loss_at_peak_drops_everything(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_link_degradation(
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=1.0, end=2.0, loss=1.0)
        )
        sim.schedule_at(0.5, a.send, B_ADDR, q())
        sim.schedule_at(1.5, a.send, B_ADDR, q())
        sim.schedule_at(2.5, a.send, B_ADDR, q())
        sim.run()
        assert len(b.inbox) == 2
        assert net.stats.messages_lost == 1

    def test_unidirectional_leaves_reverse_path_clean(self):
        sim, net, a, b = make_net()
        net.set_link(A_ADDR, B_ADDR, LinkSpec(latency=0.001), symmetric=True)
        injector = FaultInjector(net)
        injector.add_link_degradation(
            LinkDegradation(
                src=A_ADDR,
                dst=B_ADDR,
                start=0.0,
                end=10.0,
                latency=0.05,
                bidirectional=False,
            )
        )
        sim.schedule_at(1.0, a.send, B_ADDR, q())
        sim.schedule_at(1.0, b.send, A_ADDR, q())
        sim.run()
        assert b.inbox[0][0] == pytest.approx(1.0 + 0.001 + 0.05)
        assert a.inbox[0][0] == pytest.approx(1.0 + 0.001)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=5.0, end=1.0)


class TestNodeOutage:
    def test_single_outage_crashes_and_recovers(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_node_outage(NodeOutage(address=B_ADDR, at=1.0, duration=0.5))
        sim.run()
        assert injector.stats.crashes == 1
        assert injector.stats.recoveries == 1
        assert b.up is True
        labels = [label for _, label in injector.timeline]
        assert f"crash {B_ADDR}" in labels
        assert f"recover {B_ADDR}" in labels

    def test_flapping_repeats_the_cycle(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_node_outage(
            NodeOutage(address=B_ADDR, at=1.0, duration=0.5, flaps=3, period=2.0)
        )
        sim.run()
        assert injector.stats.crashes == 3
        assert injector.stats.recoveries == 3
        assert b.up is True

    def test_jittered_schedule_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = Network(sim)
            net.attach(Sink(B_ADDR))
            injector = FaultInjector(net)
            injector.add_node_outage(
                NodeOutage(address=B_ADDR, at=2.0, duration=1.0, flaps=4, jitter=0.3)
            )
            sim.run()
            return injector.timeline

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_unknown_address_is_a_noop(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_node_outage(NodeOutage(address="10.9.9.9", at=1.0, duration=1.0))
        sim.run()
        assert injector.stats.crashes == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NodeOutage(address=B_ADDR, at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            NodeOutage(address=B_ADDR, at=0.0, duration=1.0, flaps=0)


class TestInjectorComposition:
    def test_partition_takes_priority_over_degradation(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        injector.add_partition(Partition(a=A_ADDR, b=B_ADDR, start=0.0, end=10.0))
        injector.add_link_degradation(
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=0.0, end=10.0, latency=0.05)
        )
        a.send(B_ADDR, q())
        sim.run()
        assert b.inbox == []
        assert injector.stats.partition_cuts == 1
        assert injector.stats.degraded_messages == 0


class TestFaultSerialization:
    SPECS = [
        LinkDegradation(
            src=A_ADDR, dst=B_ADDR, start=1.0, end=3.0, loss=0.4, latency=0.02, ramp=0.5
        ),
        Partition(a=A_ADDR, b=B_ADDR, start=2.0, end=4.0),
        Partition(a=[A_ADDR], b=[B_ADDR, "10.0.0.3"], start=0.0, end=1.0),
        NodeOutage(address=B_ADDR, at=1.0, duration=0.5, flaps=3, period=2.0, jitter=0.3),
    ]

    def test_round_trip_each_kind(self):
        from repro.netsim.faults import fault_from_dict

        for spec in self.SPECS:
            data = spec.to_dict()
            assert isinstance(data["kind"], str)
            assert fault_from_dict(data) == spec

    def test_schedule_round_trip_through_json(self):
        import json

        from repro.netsim.faults import schedule_from_dicts, schedule_to_dicts

        wire = json.dumps(schedule_to_dicts(self.SPECS))
        assert schedule_from_dicts(json.loads(wire)) == self.SPECS

    def test_unknown_kind_rejected(self):
        from repro.netsim.faults import fault_from_dict

        with pytest.raises(ValueError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor-strike"})

    def test_injector_add_dispatches_by_type(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)
        for spec in self.SPECS:
            injector.add(spec)
        sim.run()
        assert injector.stats.crashes == 3  # the flapping outage fired

    def test_add_rejects_non_fault_objects(self):
        _, net, _, _ = make_net()
        injector = FaultInjector(net)
        with pytest.raises(TypeError):
            injector.add(object())


class TestOutageExpansion:
    """The shared flap expansion both chaos backends schedule from."""

    def test_period_defaults_to_twice_duration(self):
        from repro.netsim.faults import outage_period

        assert outage_period(NodeOutage(address=B_ADDR, at=1.0, duration=0.5)) == 1.0
        assert outage_period(
            NodeOutage(address=B_ADDR, at=1.0, duration=0.5, period=3.0)
        ) == 3.0

    def test_nominal_grid_without_jitter(self):
        import random

        from repro.netsim.faults import expand_outage

        spec = NodeOutage(address=B_ADDR, at=1.0, duration=0.5, flaps=3, period=2.0)
        pairs = expand_outage(spec, random.Random(0))
        assert pairs == [(1.0, 1.5), (3.0, 3.5), (5.0, 5.5)]

    def test_clamped_pair_is_skipped_not_collapsed(self):
        # an outage entirely in the past clamps to (now, now): scheduling
        # a crash and a recover at the same instant would leave the
        # node's final state to event-queue tie-breaking, so the pair
        # must be skipped outright
        import random

        from repro.netsim.faults import expand_outage

        spec = NodeOutage(address=B_ADDR, at=1.0, duration=0.5, flaps=3, period=2.0)
        pairs = expand_outage(spec, random.Random(0), now=2.0)
        assert pairs == [(3.0, 3.5), (5.0, 5.5)]
        for down_at, up_at in pairs:
            assert up_at > down_at

    def test_skipped_pairs_still_consume_jitter_draws(self):
        # the clamp must not shift later flaps' RNG draws: expanding with
        # now=0 and now far into the schedule agree on the surviving tail
        import random

        from repro.netsim.faults import expand_outage

        spec = NodeOutage(
            address=B_ADDR, at=1.0, duration=0.5, flaps=4, period=2.0, jitter=0.2
        )
        full = expand_outage(spec, random.Random(11))
        clamped = expand_outage(spec, random.Random(11), now=4.0)
        surviving = [p for p in full if p[1] > 4.0 and max(p[0], 4.0) < p[1]]
        assert clamped == [(max(d, 4.0), u) for d, u in surviving]

    def test_injector_mid_run_outage_in_the_past_is_safe(self):
        sim, net, a, b = make_net()
        injector = FaultInjector(net)

        def late_add():
            injector.add_node_outage(
                NodeOutage(address=B_ADDR, at=0.0, duration=1.0)
            )

        sim.schedule_at(5.0, late_add)  # whole window already elapsed
        sim.run()
        assert b.up is True
        assert injector.stats.crashes == 0
        assert injector.stats.recoveries == 0


class TestFaultSpan:
    def test_empty_schedule_has_no_span(self):
        from repro.netsim.faults import fault_span

        assert fault_span([]) is None

    def test_envelope_covers_every_fault_kind(self):
        from repro.netsim.faults import fault_span

        faults = [
            Partition(a=A_ADDR, b=B_ADDR, start=3.0, end=6.0),
            LinkDegradation(src=A_ADDR, dst=B_ADDR, start=2.0, end=5.0, loss=0.1),
            NodeOutage(address=B_ADDR, at=4.0, duration=1.0, flaps=3, period=2.0),
        ]
        # the flapping outage ends at 4 + 2*2 + 1 = 9
        assert fault_span(faults) == (2.0, 9.0)

    def test_span_ignores_jitter_by_design(self):
        from repro.netsim.faults import fault_span

        jittered = NodeOutage(address=B_ADDR, at=2.0, duration=1.0, jitter=0.5)
        assert fault_span([jittered]) == (2.0, 3.0)
