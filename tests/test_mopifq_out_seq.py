"""MOPI-FQ's ``out_seq`` (a ``heapq`` with lazy invalidation) against a
brute-force reference that keeps no ordered structure at all.

The heap decides *which active output is served next*, and ``dequeue``
removes that queue's head and updates the heap's top in one piece of
code of its own.  The reference shares neither: each active queue
carries its current ``(time, seq, destination)`` key, the next output is
found by scanning all of them for the minimum, and the head comes off
through the general ``_unlink`` (the scheduler's former head removal,
kept here as the oracle).  Enqueue and eviction are the scheduler's own.
With few destinations the queues run deep, so rounds, evictions,
congestion re-keys and deactivations all happen thousands of times.

Through ``enqueue``/``dequeue`` alone no tuple is ever left stale in the
heap (asserted below): a queue's head changes only in ``dequeue``, which
updates the tuple where it lies.  The two re-keys that do strand a tuple
-- an eviction that takes a queue's only entry, a new head in front of
the old one -- are reached here by calling ``_evict_latest`` and
``_reposition_out_key`` directly, so that everything downstream of a
stale tuple (on top of the heap in particular) stays covered.
"""

import heapq
import random

import pytest

from repro.dcc.mopifq import _OUT_SEQ_COMPACT_MIN, DequeuedMessage, MopiFq, MopiFqConfig

DESTINATIONS = [f"d{i}" for i in range(6)]
SOURCES = [f"s{i}" for i in range(10)]
#: (rate, burst): two channels that never congest, three that do, and
#: one left on the configured default
CHANNELS = {"d0": (1e6, 1e6), "d1": (1e6, 1e6), "d2": (100.0, 4.0), "d3": (100.0, 4.0), "d4": (50.0, 1.0)}


class ScanFq(MopiFq):
    """Reference scheduler: no ``out_seq``; the minimum key is found by a
    linear scan of the active outputs, and the head is removed by
    ``_unlink``.  Draws sequence numbers at the same points as the real
    one, so ties break identically."""

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

    def _remove_head(self, destination, state):
        entry = state.head
        assert entry is not None
        result = DequeuedMessage(entry.source, destination, entry.payload, entry.arr_time)
        self._unlink(destination, state, entry)
        self.stats.dequeued += 1
        per_dst = self.stats.output_per_source.setdefault(destination, {})
        per_dst[result.source] = per_dst.get(result.source, 0) + 1
        return result


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


def top_belongs_to(fq, destination):
    return bool(fq._out_seq) and fq._out_seq[0][2] == destination


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
        ["evict_only_entry", "evict_under_top", "rekey_under_top", "reactivate_under_stale_top",
         "next_ready_with_stale_top", "dequeue_with_stale_top"], 0)
    statuses = {}

    for op in range(120_000):
        now += rng.expovariate(2000.0)
        roll = rng.random()
        stale_before = fq._out_stale
        if roll < 0.50:
            # one source in three messages is the hog, so it runs out of rounds
            source = SOURCES[0] if rng.random() < 0.33 else rng.choice(SOURCES)
            destination = rng.choice(DESTINATIONS)
            got_status, got_evicted = fq.enqueue(source, destination, op, now)
            want_status, want_evicted = ref.enqueue(source, destination, op, now)
            assert got_status is want_status, op
            assert (got_evicted is None) == (want_evicted is None), op
            if got_evicted is not None:
                assert vars(got_evicted) == vars(want_evicted), op
                # enqueue keeps using the source's [round, quota] record it
                # read before the eviction: the victim must be someone else
                assert got_evicted.source != source, op
            statuses[got_status] = statuses.get(got_status, 0) + 1
            assert fq._out_stale == stale_before, op
        elif roll < 0.52:
            # Eviction of a queue's only entry, then re-insertion.  enqueue
            # cannot get here by itself (a depth-1 queue has current ==
            # latest round, so nothing is ever "earlier than the latest"),
            # but _unlink handles it, so out_seq must too.
            only = sorted(d for d in DESTINATIONS if fq.queue_depth(d) == 1)
            if only:
                destination = rng.choice(only)
                covered["evict_under_top"] += top_belongs_to(fq, destination) and not top_is_stale(fq)
                got = fq._evict_latest(destination, fq._poq[destination])
                want = ref._evict_latest(destination, ref._poq[destination])
                assert vars(got) == vars(want), op
                assert destination not in fq._poq and fq._out_stale == stale_before + 1
                covered["reactivate_under_stale_top"] += top_belongs_to(fq, destination) and top_is_stale(fq)
                assert fq.enqueue(got.source, destination, op, now)[0] is \
                    ref.enqueue(got.source, destination, op, now)[0]
                covered["evict_only_entry"] += 1
        elif roll < 0.54:
            # A re-key of an active queue, as a new head linked in front of
            # the old one would cause (enqueue cannot get there either: the
            # head is always in the current round, so there is no earlier
            # round to land in).  The old tuple stays behind as stale.
            active = sorted(fq._poq)
            if active:
                destination = rng.choice(active)
                covered["rekey_under_top"] += top_belongs_to(fq, destination) and not top_is_stale(fq)
                fq._reposition_out_key(destination, fq._poq[destination])
                ref._reposition_out_key(destination, ref._poq[destination])
        else:
            # a single dequeue, or (now and then) a drain of all that is ready
            for _ in range(500 if roll > 0.97 else 1):
                covered["dequeue_with_stale_top"] += top_is_stale(fq)
                got, want = fq.dequeue(now), ref.dequeue(now)
                assert as_tuple(got) == as_tuple(want), op
                if got is None:
                    break
            assert fq._out_stale <= stale_before, op  # drops stale tuples, strands none
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


class _CountingHeapq:
    """``heapq`` with a call count per function (patched into the module)."""

    def __init__(self):
        self.calls = dict.fromkeys(["heappush", "heappop", "heapreplace", "heapify"], 0)

    def __getattr__(self, name):
        def counted(*args):
            self.calls[name] += 1
            return getattr(heapq, name)(*args)
        return counted


def test_cold_outputs_keep_one_tuple_per_active_output(monkeypatch):
    """The Figure 10 regime: every message activates an output and its
    dequeue deactivates it again.  The heap then holds exactly one tuple
    per active output after every operation; nothing goes stale."""
    counting = _CountingHeapq()
    monkeypatch.setattr("repro.dcc.mopifq.heapq", counting)
    rng = random.Random(3)
    fq = MopiFq(MopiFqConfig(pool_capacity=1000, default_channel_rate=1e6))
    now, steps, served = 0.0, 10_000, 0

    def settled():
        assert fq._out_stale == 0 and len(fq._out_seq) == fq.active_outputs()

    for step in range(steps):
        now += 0.001
        assert fq.enqueue(f"s{step % 7}", f"cold{step}", step, now)[0].ok
        settled()
        # mostly one in, one out; now and then a few outputs pile up first
        for _ in range(rng.choice((1, 1, 0, 3))):
            served += fq.dequeue(now) is not None
            settled()
    while fq.dequeue(now) is not None:
        served += 1
        settled()
    assert served == steps and fq.active_outputs() == 0
    fq.check_invariants()
    # one push per activation, one pop per deactivation, nothing else
    assert counting.calls == {"heappush": steps, "heappop": steps, "heapreplace": 0, "heapify": 0}


def test_deep_queue_drains_without_a_stale_pop(monkeypatch):
    """One output, ``depth`` messages, drained by dequeue alone: the one
    tuple is replaced under every new head and popped exactly once."""
    counting = _CountingHeapq()
    monkeypatch.setattr("repro.dcc.mopifq.heapq", counting)
    depth = 60
    fq = MopiFq(MopiFqConfig(max_poq_depth=depth, max_round=depth, default_channel_rate=1e6))
    for i in range(depth):
        assert fq.enqueue(f"s{i % 4}", "deep", i, now=float(i))[0].ok
    assert counting.calls["heappush"] == 1
    served = []
    while True:
        message = fq.dequeue(1e6)
        if message is None:
            break
        served.append(message.payload)
        assert fq._out_stale == 0 and len(fq._out_seq) == fq.active_outputs()
    assert sorted(served) == list(range(depth))
    assert counting.calls == {"heappush": 1, "heappop": 1, "heapreplace": depth - 1, "heapify": 0}


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
