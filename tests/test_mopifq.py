"""MOPI-FQ scheduler tests: Figure 13 conformance, invariants, fairness.

The deepest-tested module in the repository, since it is the paper's
core contribution (Section 4 / Appendix B).
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.maxmin import water_filling
from repro.dcc.mopifq import EnqueueStatus, MopiFq, MopiFqConfig


def make(depth=10, max_round=5, pool=100, rate=1000.0, share_of=None):
    fq = MopiFq(
        MopiFqConfig(
            max_poq_depth=depth,
            max_round=max_round,
            pool_capacity=pool,
            default_channel_rate=rate,
        ),
        share_of=share_of,
    )
    return fq


class TestConfigBounds:
    """A scheduler that could never admit a message is refused when it is
    built, not discovered as a run of silent rejections."""

    def test_max_round_below_one_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_round"):
                MopiFq(MopiFqConfig(max_round=bad))
        assert MopiFq(MopiFqConfig(max_round=1, pool_capacity=4)).enqueue("s", "d", 0, 0.0)[0].ok

    def test_max_poq_depth_below_one_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_poq_depth"):
                MopiFq(MopiFqConfig(max_poq_depth=bad))
        assert MopiFq(MopiFqConfig(max_poq_depth=1, pool_capacity=4)).enqueue("s", "d", 0, 0.0)[0].ok

    def test_negative_pool_capacity_rejected(self):
        with pytest.raises(ValueError, match="pool_capacity"):
            MopiFq(MopiFqConfig(pool_capacity=-1))
        # an empty pool is a valid (always overflowing) scheduler
        status, _ = MopiFq(MopiFqConfig(pool_capacity=0)).enqueue("s", "d", 0, 0.0)
        assert status is EnqueueStatus.FAIL_QUEUE_OVERFLOW


class TestEnqueueBasics:
    def test_enqueue_dequeue_single(self):
        fq = make()
        status, evicted = fq.enqueue("s1", "d1", "payload", now=0.0)
        assert status.ok and evicted is None
        item = fq.dequeue(now=0.0)
        assert item.source == "s1"
        assert item.destination == "d1"
        assert item.payload == "payload"

    def test_empty_dequeue_returns_none(self):
        fq = make()
        assert fq.dequeue(0.0) is None
        assert fq.stats.dequeue_empty == 1

    def test_fifo_within_single_source(self):
        fq = make()
        for i in range(5):
            fq.enqueue("s1", "d1", i, now=float(i))
        assert [fq.dequeue(10.0).payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_total_depth_tracks(self):
        fq = make()
        fq.enqueue("s1", "d1", 1, 0.0)
        fq.enqueue("s2", "d2", 2, 0.0)
        assert fq.total_depth == 2
        fq.dequeue(0.0)
        assert fq.total_depth == 1

    def test_deactivation_when_empty(self):
        fq = make()
        fq.enqueue("s1", "d1", 1, 0.0)
        fq.dequeue(0.0)
        assert fq.active_outputs() == 0
        assert fq.queue_depth("d1") == 0


class TestRoundScheduling:
    def test_round_robin_interleaves_sources(self):
        """Two sources, one bursty: service alternates (Figure 7c)."""
        fq = make()
        for i in range(3):
            fq.enqueue("fast", "d1", f"f{i}", 0.0)
        fq.enqueue("slow", "d1", "s0", 0.0)
        order = [fq.dequeue(1.0).source for _ in range(4)]
        # Round 0 holds fast's first and slow's only message; fast's
        # later messages land in rounds 1 and 2.
        assert order[:2] == ["fast", "slow"]
        assert order[2:] == ["fast", "fast"]

    def test_rounds_are_monotone_in_queue(self):
        fq = make()
        rng = random.Random(5)
        for i in range(30):
            fq.enqueue(f"s{rng.randrange(3)}", "d1", i, now=i * 0.001)
        snapshot = fq.queue_snapshot("d1")
        rounds = [r for _, r in snapshot]
        assert rounds == sorted(rounds)

    def test_overspeed_failure(self):
        """A single source may occupy at most MAX_ROUND rounds ahead."""
        fq = make(depth=100, max_round=5)
        outcomes = [fq.enqueue("s1", "d1", i, 0.0)[0] for i in range(8)]
        assert outcomes[:5] == [EnqueueStatus.SUCCESS] * 5
        assert outcomes[5:] == [EnqueueStatus.FAIL_CLIENT_OVERSPEED] * 3
        assert fq.stats.fail_overspeed == 3

    def test_rounds_free_up_after_dequeue(self):
        fq = make(depth=100, max_round=3)
        for i in range(3):
            fq.enqueue("s1", "d1", i, 0.0)
        assert not fq.enqueue("s1", "d1", 99, 0.0)[0].ok
        fq.dequeue(0.0)
        assert fq.enqueue("s1", "d1", 3, 0.0)[0].ok


class TestCongestionAndEviction:
    def test_queue_full_congested_for_latest_round(self):
        fq = make(depth=3, max_round=10)
        for i in range(3):
            assert fq.enqueue("s1", "d1", i, 0.0)[0].ok
        status, _ = fq.enqueue("s1", "d1", 99, 0.0)
        assert status == EnqueueStatus.FAIL_CHANNEL_CONGESTED

    def test_earlier_round_arrival_evicts_latest(self):
        """A below-fair-share source displaces the hog's tail message
        (the mechanism behind the Appendix B fairness proof)."""
        fq = make(depth=3, max_round=10)
        for i in range(3):
            fq.enqueue("hog", "d1", f"h{i}", 0.0)
        status, evicted = fq.enqueue("meek", "d1", "m0", 0.0)
        assert status.ok
        assert evicted is not None
        assert evicted.source == "hog"
        assert evicted.payload == "h2"  # tail of the latest round
        assert fq.stats.evicted == 1
        # meek's message went into the current round: served 2nd.
        order = [fq.dequeue(1.0) for _ in range(3)]
        assert [m.source for m in order] == ["hog", "meek", "hog"]

    def test_pool_overflow(self):
        fq = make(depth=10, max_round=10, pool=4)
        for i in range(4):
            assert fq.enqueue(f"s{i}", f"d{i}", i, 0.0)[0].ok
        status, _ = fq.enqueue("s9", "d9", 9, 0.0)
        assert status == EnqueueStatus.FAIL_QUEUE_OVERFLOW

    def test_pool_overflow_eviction_for_earlier_round(self):
        fq = make(depth=10, max_round=10, pool=3)
        for i in range(3):
            fq.enqueue("hog", "d1", i, 0.0)
        status, evicted = fq.enqueue("meek", "d1", "m", 0.0)
        assert status.ok and evicted is not None
        assert fq.total_depth == 3

    def test_failed_first_enqueue_leaves_no_state(self):
        fq = make(pool=1)
        fq.enqueue("s1", "d1", 1, 0.0)
        status, _ = fq.enqueue("s2", "d2", 2, 0.0)
        assert status == EnqueueStatus.FAIL_QUEUE_OVERFLOW
        assert fq.active_outputs() == 1  # d2 was not leaked

    def test_entry_recycling(self):
        """The pool sustains far more messages than its capacity."""
        fq = make(depth=5, max_round=5, pool=8)
        sent = 0
        for i in range(100):
            status, _ = fq.enqueue(f"s{i % 2}", "d1", i, now=i * 0.01)
            item = fq.dequeue(now=i * 0.01)
            if item is not None:
                sent += 1
        assert sent > 50


class TestMultiOutput:
    def test_outputs_isolated(self):
        """Congestion on one channel never blocks another (the failure
        of input-centric FQ that MOPI-FQ fixes, Figure 7a)."""
        fq = make(rate=1000.0)
        fq.set_channel_capacity("congested", 1.0, burst=1.0)
        fq.set_channel_capacity("healthy", 1000.0)
        fq.enqueue("s1", "congested", "c1", 0.0)
        fq.enqueue("s1", "congested", "c2", 0.0)
        fq.enqueue("s1", "healthy", "h1", 0.0)
        got = [fq.dequeue(0.0) for _ in range(3)]
        payloads = [m.payload for m in got if m is not None]
        assert "h1" in payloads  # healthy drained despite congestion
        assert payloads.count("c2") == 0  # congested limited to 1 token

    def test_arrival_order_across_outputs(self):
        """out_seq preserves global arrival order across channels."""
        fq = make()
        fq.enqueue("s1", "d-b", "second", now=1.0)
        fq.enqueue("s1", "d-a", "first", now=0.5)
        fq.enqueue("s1", "d-c", "third", now=1.5)
        order = [fq.dequeue(2.0).payload for _ in range(3)]
        assert order == ["first", "second", "third"]

    def test_congested_channel_requeued_at_token_time(self):
        fq = make()
        fq.set_channel_capacity("slow", rate=10.0, burst=1.0)
        fq.enqueue("s1", "slow", "a", 0.0)
        fq.enqueue("s1", "slow", "b", 0.0)
        assert fq.dequeue(0.0).payload == "a"
        assert fq.dequeue(0.0) is None  # token exhausted
        ready = fq.next_ready_time(0.0)
        assert ready == pytest.approx(0.1)
        assert fq.dequeue(ready).payload == "b"

    def test_next_ready_time_none_when_empty(self):
        assert make().next_ready_time(0.0) is None


class TestWeightedShares:
    def test_shares_give_proportional_rounds(self):
        """A share-3 source may put 3 messages in each round (B.1.3)."""
        shares = {"gold": 3, "bronze": 1}
        fq = make(depth=100, max_round=10, share_of=lambda s: shares[s])
        for i in range(6):
            fq.enqueue("gold", "d1", f"g{i}", 0.0)
        for i in range(2):
            fq.enqueue("bronze", "d1", f"b{i}", 0.0)
        snapshot = fq.queue_snapshot("d1")
        round0 = [src for src, r in snapshot if r == 0]
        assert round0.count("gold") == 3
        assert round0.count("bronze") == 1

    def test_share_throughput_ratio(self):
        shares = {"gold": 3, "bronze": 1}
        fq = make(depth=300, max_round=75, share_of=lambda s: shares[s])
        fq.set_channel_capacity("d1", 100.0, burst=1.0)
        rng = random.Random(9)
        counts = {"gold": 0, "bronze": 0}
        t = 0.0
        while t < 20.0:
            t += 0.005 * rng.uniform(0.9, 1.1)
            fq.enqueue("gold" if rng.random() < 0.5 else "bronze", "d1", None, t)
            while True:
                item = fq.dequeue(t)
                if item is None:
                    break
                if t > 5.0:
                    counts[item.source] += 1
        ratio = counts["gold"] / max(1, counts["bronze"])
        assert 2.0 < ratio < 4.5  # ~3x with scheduling noise


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),  # source id
                st.integers(0, 2),  # destination id
                st.booleans(),  # dequeue after this enqueue?
            ),
            max_size=120,
        )
    )
    def test_random_ops_hold_invariants(self, ops):
        fq = make(depth=6, max_round=4, pool=30)
        now = 0.0
        for src, dst, do_dequeue in ops:
            now += 0.001
            fq.enqueue(f"s{src}", f"d{dst}", None, now)
            fq.check_invariants()
            if do_dequeue:
                fq.dequeue(now)
                fq.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_drain_always_terminates_clean(self, seed):
        rng = random.Random(seed)
        fq = make(depth=8, max_round=4, pool=40, rate=1e9)
        now = 0.0
        for _ in range(60):
            now += 0.001
            fq.enqueue(f"s{rng.randrange(4)}", f"d{rng.randrange(3)}", None, now)
        drained = 0
        while fq.dequeue(now + 1.0) is not None:
            drained += 1
        assert drained == fq.stats.enqueued - fq.stats.evicted
        assert fq.total_depth == 0
        assert fq.active_outputs() == 0


class TestFairness:
    @staticmethod
    def _run(rates, capacity, depth, max_round=75, T=20.0, warm=5.0, seed=7):
        """Event-driven source simulation against one channel."""
        rng = random.Random(seed)
        fq = make(depth=depth, max_round=max_round, pool=100_000)
        fq.set_channel_capacity("dst", capacity)
        events = []
        for i, rate in enumerate(rates):
            heapq.heappush(events, (1.0 / rate, i, 0))
        counts = {}
        seq = 1
        while events:
            t, i, _ = heapq.heappop(events)
            if t > T:
                break
            while True:
                item = fq.dequeue(t)
                if item is None:
                    break
                if t >= warm:
                    counts[item.source] = counts.get(item.source, 0) + 1
            fq.enqueue(f"s{i}", "dst", None, t)
            gap = (1.0 / rates[i]) * (1 + rng.uniform(-0.1, 0.1))
            heapq.heappush(events, (t + gap, i, seq))
            seq += 1
        horizon = T - warm
        return [counts.get(f"s{i}", 0) / horizon for i in range(len(rates))]

    def test_theorem_b1_max_min_fairness(self):
        """With a queue deep enough for all senders (the proof's
        assumption), measured rates match water filling within 5%."""
        rates = [600.0, 350.0, 150.0, 1100.0]
        capacity = 1000.0
        measured = self._run(rates, capacity, depth=4 * 75)
        ideal = water_filling(rates, capacity)
        for got, want in zip(measured, ideal):
            assert got == pytest.approx(want, rel=0.05)

    def test_equal_sources_split_equally(self):
        measured = self._run([500.0, 500.0], 100.0, depth=150)
        assert measured[0] == pytest.approx(measured[1], rel=0.1)
        assert sum(measured) == pytest.approx(100.0, rel=0.1)

    def test_underloaded_source_fully_served(self):
        measured = self._run([10.0, 500.0], 100.0, depth=150)
        assert measured[0] == pytest.approx(10.0, rel=0.1)
        assert measured[1] == pytest.approx(90.0, rel=0.1)

    def test_work_conserving(self):
        """Unused share flows to whoever has demand."""
        measured = self._run([30.0, 400.0], 100.0, depth=150)
        assert sum(measured) == pytest.approx(100.0, rel=0.08)
