"""MOPI-FQ's ``out_seq`` (a ``heapq`` with lazy invalidation) against a
brute-force reference that keeps no ordered structure at all.

The heap only decides *which active output is served next*; everything
else in :class:`MopiFq` is per-queue state.  The reference therefore
reuses the per-queue code and replaces the output sequence alone: each
active queue carries its current ``(time, seq, destination)`` key and
the next output is found by scanning all of them for the minimum.  With
few destinations the queues run deep, so rounds, evictions, congestion
re-keys and deactivations all happen thousands of times.
"""

import heapq
import random

import pytest

from repro.dcc.mopifq import _OUT_SEQ_COMPACT_MIN, MopiFq, MopiFqConfig

DESTINATIONS = [f"d{i}" for i in range(6)]
SOURCES = [f"s{i}" for i in range(10)]
#: (rate, burst): two channels that never congest, three that do, and
#: one left on the configured default
CHANNELS = {"d0": (1e6, 1e6), "d1": (1e6, 1e6), "d2": (100.0, 4.0), "d3": (100.0, 4.0), "d4": (50.0, 1.0)}


class ScanFq(MopiFq):
    """Reference scheduler: no ``out_seq``; the minimum key is found by a
    linear scan of the active outputs.  Draws sequence numbers at the
    same points as the real one, so ties break identically."""

    congested_rekeys = 0

    def _min_key(self):
        return min((s.out_key for s in self._poq.values() if s.out_key is not None), default=None)

    def _reposition_out_key(self, destination, state):
        state.out_key = (state.head.arr_time, next(self._seq), destination)

    def _deactivate(self, destination, state):
        state.out_key = None
        del self._poq[destination]

    def next_ready_time(self, now):
        key = self._min_key()
        return None if key is None else max(key[0], now)

    def dequeue(self, now):
        while True:
            key = self._min_key()
            if key is None or key[0] > now:
                self.stats.dequeue_empty += 1
                return None
            destination = key[2]
            state = self._poq[destination]
            bucket = self.channel_bucket(destination)
            if not bucket.try_consume(now):
                state.out_key = (bucket.next_available(now), next(self._seq), destination)
                self.congested_rekeys += 1
                continue
            return self._remove_head(destination, state)


def make_pair():
    params = dict(max_poq_depth=40, max_round=16, pool_capacity=100, default_channel_rate=1000.0)
    shares = {source: 1 + i % 3 for i, source in enumerate(SOURCES)}
    pair = (
        MopiFq(MopiFqConfig(**params), share_of=shares.__getitem__, sanitize=True),
        ScanFq(MopiFqConfig(**params), share_of=shares.__getitem__, sanitize=False),
    )
    for fq in pair:
        for destination, (rate, burst) in CHANNELS.items():
            fq.set_channel_capacity(destination, rate, burst)
    return pair


def top_is_stale(fq):
    if not fq._out_seq:
        return False
    top = fq._out_seq[0]
    state = fq._poq.get(top[2])
    return state is None or state.out_key is not top


def as_tuple(message):
    return None if message is None else (message.source, message.destination, message.payload, message.arr_time)


def assert_heap_bounded(fq):
    assert len(fq._out_seq) <= 2 * fq.active_outputs() + _OUT_SEQ_COMPACT_MIN


@pytest.mark.parametrize("seed", [11, 2024])
def test_heap_out_seq_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    fq, ref = make_pair()
    now = 0.0
    covered = dict.fromkeys(
        ["reactivate_under_stale_top", "next_ready_with_stale_top",
         "dequeue_with_stale_top", "evict_only_entry"], 0)
    statuses = {}

    for op in range(120_000):
        now += rng.expovariate(2000.0)
        roll = rng.random()
        if roll < 0.50:
            # one source in three messages is the hog, so it runs out of rounds
            source = SOURCES[0] if rng.random() < 0.33 else rng.choice(SOURCES)
            destination = rng.choice(DESTINATIONS)
            if top_is_stale(fq) and fq._out_seq[0][2] == destination and destination not in fq._poq:
                covered["reactivate_under_stale_top"] += 1
            got_status, got_evicted = fq.enqueue(source, destination, op, now)
            want_status, want_evicted = ref.enqueue(source, destination, op, now)
            assert got_status is want_status, op
            assert (got_evicted is None) == (want_evicted is None), op
            if got_evicted is not None:
                assert vars(got_evicted) == vars(want_evicted), op
            statuses[got_status] = statuses.get(got_status, 0) + 1
        elif roll < 0.52:
            # Eviction of a queue's only entry, then re-insertion.  enqueue
            # cannot get here by itself (a depth-1 queue has current ==
            # latest round, so nothing is ever "earlier than the latest"),
            # but _unlink handles it, so out_seq must too.
            only = sorted(d for d in DESTINATIONS if fq.queue_depth(d) == 1)
            if only:
                destination = rng.choice(only)
                got = fq._evict_latest(destination, fq._poq[destination])
                want = ref._evict_latest(destination, ref._poq[destination])
                assert vars(got) == vars(want), op
                assert fq.enqueue(got.source, destination, op, now)[0] is \
                    ref.enqueue(got.source, destination, op, now)[0]
                covered["evict_only_entry"] += 1
        else:
            # a single dequeue, or (now and then) a drain of all that is ready
            for _ in range(500 if roll > 0.97 else 1):
                covered["dequeue_with_stale_top"] += top_is_stale(fq)
                got, want = fq.dequeue(now), ref.dequeue(now)
                assert as_tuple(got) == as_tuple(want), op
                if got is None:
                    break
        if rng.random() < 0.3:
            covered["next_ready_with_stale_top"] += top_is_stale(fq)
            assert fq.next_ready_time(now) == ref.next_ready_time(now), op
        assert fq.active_outputs() == ref.active_outputs(), op
        assert_heap_bounded(fq)

    fq.check_invariants()
    assert vars(fq.stats) == vars(ref.stats)
    assert all(count > 0 for count in covered.values()), covered
    assert ref.congested_rekeys > 1000
    assert set(statuses) == set(type(got_status)), statuses  # every EnqueueStatus seen
    # and what is left drains in the same order
    now += 1000.0
    while True:
        got, want = fq.dequeue(now), ref.dequeue(now)
        assert as_tuple(got) == as_tuple(want)
        if got is None:
            break
        now += 0.05
    assert fq.total_depth == ref.total_depth == 0 and fq.next_ready_time(now) is None


def test_rekeying_keeps_the_heap_linear_in_active_outputs():
    """10^5 re-keys that nothing ever pops (a re-key leaves the old tuple
    behind as stale): compaction alone must hold the bound."""
    rng = random.Random(5)
    fq = MopiFq(MopiFqConfig(pool_capacity=1000), sanitize=False)
    destinations = [f"d{i}" for i in range(200)]
    for i, destination in enumerate(destinations):
        fq.enqueue("s", destination, i, now=float(i))
    largest = 0
    for _ in range(100_000):
        destination = rng.choice(destinations)
        fq._reposition_out_key(destination, fq._poq[destination])
        assert_heap_bounded(fq)
        largest = max(largest, len(fq._out_seq))
    assert largest > fq.active_outputs()  # stale tuples did pile up in between
    fq.check_invariants()
    # the survivors are still served in head-arrival order
    assert [fq.dequeue(1e9).payload for _ in destinations] == list(range(200))
    assert fq.dequeue(1e9) is None and fq._out_seq == [] and fq._out_stale == 0


def test_check_invariants_counts_live_out_seq_entries():
    fq = MopiFq(MopiFqConfig(), sanitize=False)
    for i in range(5):
        fq.enqueue("s", f"d{i}", i, now=float(i))
    fq.check_invariants()

    lost = fq._out_seq.pop()  # a queue without its tuple
    with pytest.raises(AssertionError, match="live-entry count"):
        fq.check_invariants()
    heapq.heappush(fq._out_seq, lost)

    heapq.heappush(fq._out_seq, (99.0, 10**9, "d0"))  # an uncounted stale tuple
    with pytest.raises(AssertionError, match="stale count"):
        fq.check_invariants()
    fq._out_stale += 1
    fq.check_invariants()

    fq._out_seq[0], fq._out_seq[-1] = fq._out_seq[-1], fq._out_seq[0]
    with pytest.raises(AssertionError, match="heap order"):
        fq.check_invariants()
