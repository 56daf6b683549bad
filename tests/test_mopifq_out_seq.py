"""MOPI-FQ's ``out_seq`` (a ``heapq`` holding exactly one tuple per
active output) against a brute-force reference that keeps no ordered
structure at all.

The heap decides *which active output is served next*, and ``dequeue``
removes that queue's head and updates the heap's top in one piece of
code of its own.  The reference shares neither: it treats the list
``enqueue`` pushes a new output's ``(time, seq, destination)`` key onto
as an unordered bag, finds the next output by scanning all of it for the
minimum, and takes the head off with its own removal.  Enqueue and
eviction are the scheduler's own.  With few destinations the queues run
deep, so rounds, evictions, congestion re-keys and deactivations all
happen thousands of times.

Nothing but ``dequeue`` ever changes a queue's head (an arrival cannot
land in front of it, an eviction cannot take it), which is why one tuple
per output is all ``out_seq`` has to hold; the public-operation stream
below checks exactly that after every operation over a grid of
configurations.
"""

import heapq
import random

import pytest

from repro.dcc.mopifq import DequeuedMessage, EnqueueStatus, MopiFq, MopiFqConfig

DESTINATIONS = [f"d{i}" for i in range(6)]
SOURCES = [f"s{i}" for i in range(10)]
#: (rate, burst): two channels that never congest, three that do, and
#: one left on the configured default
CHANNELS = {"d0": (1e6, 1e6), "d1": (1e6, 1e6), "d2": (100.0, 4.0), "d3": (100.0, 4.0), "d4": (50.0, 1.0)}


class ScanFq(MopiFq):
    """Reference scheduler: ``_out_seq`` is an unordered bag of keys (the
    inherited ``enqueue`` adds each new output's; in what position is
    ignored), the minimum is found by a linear scan, and the head is
    removed here.  Draws sequence numbers at the same points as the real
    one, so ties break identically."""

    congested_rekeys = 0

    def next_ready_time(self, now):
        return max(min(self._out_seq)[0], now) if self._out_seq else None

    def dequeue(self, now):
        bag = self._out_seq
        while True:
            key = min(bag, default=None)
            if key is None or key[0] > now:
                self.stats.dequeue_empty += 1
                return None
            destination = key[2]
            bag.remove(key)
            bucket = self.channel_bucket(destination)
            if bucket.try_consume(now):
                return self._remove_head(destination, self._poq[destination])
            bag.append((bucket.next_available(now), next(self._seq), destination))
            self.congested_rekeys += 1

    def _remove_head(self, destination, state):
        entry = state.head
        result = DequeuedMessage(entry.source, destination, entry.payload, entry.arr_time)
        state.head = entry.next
        tails = state.round_tails
        if tails[entry.round % len(tails)] is entry:
            tails[entry.round % len(tails)] = None
        state.sources[entry.source][2] -= 1
        if not state.sources[entry.source][2]:
            del state.sources[entry.source]
        state.depth -= 1
        self.total_depth -= 1
        if state.head is None:
            # the reference recycles nothing: the next activation builds anew
            del self._poq[destination]
        else:
            state.head.prev = None
            state.current_round = state.head.round
            self._out_seq.append((state.head.arr_time, next(self._seq), destination))
        entry.payload, entry.source = None, ""
        entry.next, self._avail = self._avail, entry
        self.stats.dequeued += 1
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


def as_tuple(message):
    return None if message is None else (message.source, message.destination, message.payload, message.arr_time)


def assert_one_tuple_per_active_output(fq, where):
    assert len(fq._out_seq) == fq.active_outputs(), where
    assert {key[2] for key in fq._out_seq} == fq._poq.keys(), where


@pytest.mark.parametrize("seed", [11, 2024])
def test_heap_out_seq_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    fq, ref = make_pair()
    now = 0.0
    covered = dict.fromkeys(["evict_in_top_queue", "activate_ahead_of_top"], 0)
    statuses = {}

    for op in range(120_000):
        now += rng.expovariate(2000.0)
        roll = rng.random()
        if roll < 0.54:
            # one source in three messages is the hog, so it runs out of rounds
            source = SOURCES[0] if rng.random() < 0.33 else rng.choice(SOURCES)
            destination = rng.choice(DESTINATIONS)
            top = fq._out_seq[0] if fq._out_seq else None
            was_active = destination in fq._poq
            got_status, got_evicted = fq.enqueue(source, destination, op, now)
            want_status, want_evicted = ref.enqueue(source, destination, op, now)
            assert got_status is want_status, op
            assert (got_evicted is None) == (want_evicted is None), op
            if got_evicted is not None:
                assert vars(got_evicted) == vars(want_evicted), op
                # enqueue keeps using the source's [round, quota] record it
                # read before the eviction: the victim must be someone else
                assert got_evicted.source != source, op
                # and never the queue's head: its tuple stays where it was
                covered["evict_in_top_queue"] += top[2] == destination and fq._out_seq[0] is top
            if top is not None and got_status.ok and not was_active:
                covered["activate_ahead_of_top"] += fq._out_seq[0][2] == destination
            statuses[got_status] = statuses.get(got_status, 0) + 1
        else:
            # a single dequeue, or (now and then) a drain of all that is ready
            for _ in range(500 if roll > 0.97 else 1):
                got, want = fq.dequeue(now), ref.dequeue(now)
                assert as_tuple(got) == as_tuple(want), op
                if got is None:
                    break
        if rng.random() < 0.3:
            assert fq.next_ready_time(now) == ref.next_ready_time(now), op
        assert fq.active_outputs() == ref.active_outputs(), op
        assert_one_tuple_per_active_output(fq, op)

    fq.check_invariants()
    assert vars(fq.stats) == vars(ref.stats)
    assert all(count > 0 for count in covered.values()), covered
    assert ref.congested_rekeys > 1000
    assert set(statuses) == set(EnqueueStatus), statuses
    # and what is left drains in the same order
    now += 1000.0
    while True:
        got, want = fq.dequeue(now), ref.dequeue(now)
        assert as_tuple(got) == as_tuple(want)
        if got is None:
            break
        now += 0.05
    assert fq.total_depth == ref.total_depth == 0 and fq.next_ready_time(now) is None


def test_public_operations_keep_exactly_one_tuple_per_active_output():
    """Seeded streams of ``enqueue``/``dequeue``/``next_ready_time`` over a
    grid of configurations (depth 1..100, ``max_round`` 1..75, pool
    0..1000, shares 1..4, starved to open channels): after every
    operation ``out_seq`` names each active output exactly once."""
    grid = random.Random(22)
    seen = dict.fromkeys(EnqueueStatus, 0)
    evictions = ops = 0
    for case in range(150):
        config = MopiFqConfig(
            max_poq_depth=grid.choice((1, 2, 3, 7, 20, 100)),
            max_round=grid.choice((1, 2, 3, 8, 30, 75)),
            pool_capacity=grid.choice((0, 1, 4, 30, 1000)),
            default_channel_rate=grid.choice((1.0, 50.0, 1e6)),
        )
        burst = grid.choice((None, 1.0))
        shares = grid.choice((None, lambda source: 1 + int(source[1:]) % 4))
        fq = MopiFq(config, share_of=shares)  # sanitize=None: under REPRO_SIMSAN=1 SimSan checks every op too
        destinations = [f"d{i}" for i in range(grid.choice((1, 3, 12, 150)))]
        if burst is not None:
            for destination in destinations:
                fq.set_channel_capacity(destination, config.default_channel_rate, burst)
        sources = [f"s{i}" for i in range(grid.choice((1, 2, 9)))]
        rng = random.Random(case)
        now = 0.0
        for op in range(2000):
            now += rng.expovariate(500.0)
            roll = rng.random()
            if roll < 0.6:
                source = sources[0] if rng.random() < 0.4 else rng.choice(sources)  # a hog
                status, evicted = fq.enqueue(source, rng.choice(destinations), op, now)
                seen[status] += 1
                evictions += evicted is not None
            elif roll < 0.97:
                fq.dequeue(now)
            else:
                while fq.dequeue(now) is not None:  # all that is ready
                    assert_one_tuple_per_active_output(fq, (case, op))
            if rng.random() < 0.2:
                fq.next_ready_time(now)
            assert_one_tuple_per_active_output(fq, (case, op))
            ops += 1
        fq.check_invariants()
    assert ops >= 300_000 and evictions > 500 and all(seen.values()), (ops, evictions, seen)


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
    per active output after every operation."""
    counting = _CountingHeapq()
    monkeypatch.setattr("repro.dcc.mopifq.heapq", counting)
    rng = random.Random(3)
    fq = MopiFq(MopiFqConfig(pool_capacity=1000, default_channel_rate=1e6))
    now, steps, served = 0.0, 10_000, 0

    for step in range(steps):
        now += 0.001
        assert fq.enqueue(f"s{step % 7}", f"cold{step}", step, now)[0].ok
        assert_one_tuple_per_active_output(fq, step)
        # mostly one in, one out; now and then a few outputs pile up first
        for _ in range(rng.choice((1, 1, 0, 3))):
            served += fq.dequeue(now) is not None
            assert_one_tuple_per_active_output(fq, step)
    while fq.dequeue(now) is not None:
        served += 1
        assert_one_tuple_per_active_output(fq, served)
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
        assert_one_tuple_per_active_output(fq, len(served))
    assert sorted(served) == list(range(depth))
    assert counting.calls == {"heappush": 1, "heappop": 1, "heapreplace": depth - 1, "heapify": 0}


def test_check_invariants_counts_live_out_seq_entries():
    fq = MopiFq(MopiFqConfig(), sanitize=False)
    for i in range(5):
        fq.enqueue("s", f"d{i}", i, now=float(i))
    fq.check_invariants()

    lost = fq._out_seq.pop()  # a queue without its tuple
    with pytest.raises(AssertionError, match="size differs"):
        fq.check_invariants()

    fq._out_seq.append((lost[0], lost[1], "d0"))  # as many tuples as queues, one queue named twice
    with pytest.raises(AssertionError, match="each active output once"):
        fq.check_invariants()
    fq._out_seq[-1] = lost
    fq.check_invariants()

    fq._out_seq[0], fq._out_seq[-1] = fq._out_seq[-1], fq._out_seq[0]
    with pytest.raises(AssertionError, match="heap order"):
        fq.check_invariants()


def test_eviction_that_would_take_a_queue_head_is_an_assertion():
    """``enqueue`` never asks for it (a depth-1 queue has no round later
    than its head's); a caller that does gets an error and an untouched
    scheduler, not a queue without a head."""
    fq = MopiFq(MopiFqConfig(), sanitize=False)
    fq.enqueue("s", "d", 0, now=0.0)
    with pytest.raises(AssertionError, match="head"):
        fq._evict_latest("d", fq._poq["d"])
    fq.check_invariants()
    assert fq.dequeue(1.0).payload == 0
