"""SimSan runtime sanitizer: each invariant fires on a deliberately
broken component and stays silent (and free) when disabled."""

from typing import List

import pytest

from repro import sanitize
from repro.dcc.mopifq import MopiFq, MopiFqConfig
from repro.netsim.sim import Event, Simulator
from repro.util.tokenbucket import TokenBucket, WindowedCounter


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# event-heap monotonicity
# ----------------------------------------------------------------------

def test_heap_monotonicity_violation_detected():
    sim = Simulator(seed=1, sanitize=True)
    sim.schedule(1.0, _noop)
    rogue = sim.schedule(2.0, _noop)
    # Corrupt the event in place: after t=1.0 has been processed, the
    # rogue event claims to fire in the past.
    rogue.time = 0.5
    with pytest.raises(sanitize.SimSanViolation, match="dequeued in the past"):
        sim.run()


def test_heap_monotonicity_silent_when_disabled():
    sim = Simulator(seed=1, sanitize=False)
    sim.schedule(1.0, _noop)
    rogue = sim.schedule(2.0, _noop)
    rogue.time = 0.5
    sim.run()  # silently tolerated: checks compiled out


class _LossyCompactionSim(Simulator):
    """A scheduler whose compaction silently drops one live event."""

    def _rebuild_heap(self, live: List[Event]) -> List[Event]:
        return super()._rebuild_heap(live[:-1] if live else live)


def test_compaction_multiset_violation_detected():
    sim = _LossyCompactionSim(seed=1, sanitize=True)
    events = [sim.schedule(10.0 + i, _noop) for i in range(200)]
    with pytest.raises(sanitize.SimSanViolation, match="compaction"):
        # Cancelling >half the heap triggers _compact(), whose broken
        # rebuild loses a live event.
        for event in events[:150]:
            event.cancel()


def test_compaction_ok_on_correct_scheduler():
    sim = Simulator(seed=1, sanitize=True)
    events = [sim.schedule(10.0 + i, _noop) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert sim.compactions >= 1
    sim.run()


# ----------------------------------------------------------------------
# MOPI-FQ invariants
# ----------------------------------------------------------------------

class _BrokenAccountingFq(MopiFq):
    """Forgets to count one message per source: occupancy drifts from
    queue depth, which the active-client consistency check must catch.
    (``enqueue`` does its source bookkeeping inline, so the bug is planted
    right after it: the enqueue that plants it has already been checked,
    the next operation on the queue is the first that can see it.)"""

    def enqueue(self, source, destination, payload, now):
        result = super().enqueue(source, destination, payload, now)
        self._poq[destination].sources[source][2] -= 1
        return result


def test_mopifq_occupancy_violation_detected():
    for next_op in ("enqueue", "dequeue"):
        fq = _BrokenAccountingFq(MopiFqConfig(), sanitize=True)
        MopiFq.enqueue(fq, "other", "dst", "p0", 0.0)  # keeps the queue active past a dequeue
        fq.enqueue("client", "dst", "p1", 0.0)
        with pytest.raises(sanitize.SimSanViolation, match="accounting|depth"):
            # the first operation after the corruption, whichever it is
            if next_op == "enqueue":
                fq.enqueue("third", "dst", "p2", 0.1)
            else:
                fq.dequeue(0.1)


def test_mopifq_occupancy_silent_when_disabled():
    fq = _BrokenAccountingFq(MopiFqConfig(), sanitize=False)
    status, _ = fq.enqueue("client", "dst", "payload", 0.0)
    assert status.name == "SUCCESS"
    assert fq.enqueue("client", "dst", "payload", 0.1)[0].name == "SUCCESS"
    assert fq.dequeue(0.2).payload == "payload"


def test_mopifq_conservation_violation_detected():
    fq = MopiFq(MopiFqConfig(), sanitize=True)
    fq.enqueue("client", "dst", "p0", 0.0)
    fq.stats.enqueued += 3  # phantom messages that never entered a queue
    with pytest.raises(sanitize.SimSanViolation, match="conservation"):
        fq.enqueue("client", "dst", "p1", 0.1)


def test_mopifq_clean_traffic_passes_sanitizer():
    fq = MopiFq(MopiFqConfig(default_channel_rate=1000.0), sanitize=True)
    t = 0.0
    for i in range(600):  # > _SAN_FULL_CHECK_EVERY: exercises the full check
        t += 0.001
        fq.enqueue(f"c{i % 7}", f"d{i % 3}", i, t)
        fq.dequeue(t)
    fq.check_invariants()


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------

def test_token_bucket_negative_tokens_detected(simsan):
    bucket = TokenBucket(rate=10.0, burst=10.0)
    bucket.try_consume(0.0)
    bucket._tokens = -5.0
    with pytest.raises(sanitize.SimSanViolation, match="negative"):
        bucket.try_consume(0.0)


def test_token_bucket_overfill_detected(simsan):
    bucket = TokenBucket(rate=10.0, burst=10.0)
    bucket._tokens = 1e9
    with pytest.raises(sanitize.SimSanViolation, match="burst|capacity"):
        bucket.try_consume(0.0)


def test_token_bucket_silent_when_disabled():
    previous = sanitize.ENABLED
    sanitize.disable()
    try:
        bucket = TokenBucket(rate=10.0, burst=10.0)
        bucket._tokens = -5.0
        bucket.try_consume(0.0)  # no sanitizer, no exception
    finally:
        sanitize.ENABLED = previous


def test_windowed_counter_negative_detected(simsan):
    counter = WindowedCounter(rate=5.0, window=1.0)
    counter._window_index = 0  # pin the window so _roll does not reset
    counter._count = -3.0
    with pytest.raises(sanitize.SimSanViolation, match="negative"):
        counter.try_consume(0.5)


def test_token_bucket_normal_operation_with_sanitizer(simsan):
    bucket = TokenBucket(rate=100.0, burst=10.0)
    granted = sum(1 for i in range(50) if bucket.try_consume(i * 0.001))
    assert 0 < granted < 50  # bucket drains, then refills a little


# ----------------------------------------------------------------------
# flag plumbing
# ----------------------------------------------------------------------

def test_enable_disable_roundtrip():
    previous = sanitize.ENABLED
    try:
        sanitize.enable()
        assert sanitize.ENABLED
        assert Simulator(seed=1).sanitize  # constructor snapshots the flag
        sanitize.disable()
        assert not sanitize.ENABLED
        assert not Simulator(seed=1).sanitize
    finally:
        sanitize.ENABLED = previous


def test_violation_is_assertion_error():
    # pytest.raises(AssertionError) and plain `assert` tooling both see it.
    assert issubclass(sanitize.SimSanViolation, AssertionError)
    with pytest.raises(AssertionError):
        sanitize.fail("boom")
