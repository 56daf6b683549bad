"""MOPI-FQ's state stays inside the paper's ``O(|O| + q)`` (Appendix B.1).

What the scheduler holds once it is drained must not depend on how many
messages went through it: per-output states are recycled through an idle
list no longer than the peak of simultaneously active outputs, a source's
record dies with its last queued message, and no table is keyed by every
(destination, source) pair ever served.  A recycled per-output state must
behave exactly as a newly built one, and what ``state_bytes()`` reports
(Figure 10's DCC state column) must be everything the scheduler reaches
but its free list of entries.  Entries are built on first need, so the
scheduler never holds more of them than it ever had queued at once.
"""

import random

import pytest

from repro.dcc.mopifq import EnqueueStatus, MopiFq, MopiFqConfig
from repro.util.memsize import approx_deep_size

#: containers keep slack that depends on their history (a dict's table, a
#: list's over-allocation): two drained schedulers may differ by that much
CONTAINER_SLACK = 16 * 1024
#: a counter that leaves the interpreter's shared small integers becomes an
#: object of its own
INT_SLACK = 16 * 28


def held(fq, *less):
    """Everything the scheduler reaches, but the free list of entries (an
    entry is reached while it is queued) and the attributes ``less``."""
    return {name: value for name, value in vars(fq).items() if name not in ("_avail", *less)}


def entries_built(fq):
    """Entries the scheduler holds: the queued ones and the free list."""
    free, entry = 0, fq._avail
    while entry is not None:
        free, entry = free + 1, entry.next
    return fq.total_depth + free


def containers_and_instances(root):
    """How many objects other than numbers, strings and ``None`` are
    reachable from ``root`` (the walk of ``approx_deep_size``)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (int, float, str)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        else:
            stack.extend(getattr(obj, slot) for slot in getattr(obj, "__slots__", ()) if hasattr(obj, slot))
    return len(seen)


def control_loop(operations, entities=10_000, burst=64, seed=5):
    """The ``ctrl_path`` loop: ``burst`` messages in between random
    (source, destination) pairs, ``burst`` dequeues; then a drain."""
    rng = random.Random(seed)
    fq = MopiFq(MopiFqConfig(pool_capacity=1000, default_channel_rate=1e6))
    sources = [f"10.0.{i >> 8}.{i & 255}" for i in range(entities)]
    destinations = [f"172.16.{i >> 8}.{i & 255}" for i in range(entities)]
    for destination in destinations:
        fq.channel_bucket(destination)
    now, peak_active, peak_depth = 0.0, 0, 0
    for _ in range(operations // burst):
        for _ in range(burst):
            now += 0.0005
            assert fq.enqueue(rng.choice(sources), rng.choice(destinations), None, now)[0].ok
        peak_active = max(peak_active, fq.active_outputs())
        peak_depth = max(peak_depth, fq.total_depth)  # dequeues only lower it
        for _ in range(burst):
            fq.dequeue(now)
    while fq.dequeue(now + 1.0) is not None:
        pass
    assert fq.total_depth == 0 and fq.active_outputs() == 0
    fq.check_invariants()
    return fq, peak_active, peak_depth


def test_a_new_scheduler_holds_no_entry():
    fq = MopiFq()
    assert fq.config.pool_capacity == 100_000 and entries_built(fq) == 0


def test_entries_built_are_the_peak_queued_not_the_capacity():
    for operations in (10_000, 100_000):
        fq, _, peak_depth = control_loop(operations)
        assert 0 < peak_depth < fq.config.pool_capacity
        assert entries_built(fq) == peak_depth, operations


def test_drained_state_does_not_depend_on_messages_served():
    (short, short_peak, _), (long, long_peak, _) = control_loop(10_000), control_loop(100_000)
    assert long.stats.dequeued > 9 * short.stats.dequeued
    for fq, peak_active in ((short, short_peak), (long, long_peak)):
        assert 0 < len(fq._idle) <= peak_active
        assert fq.state_entry_count() == len(fq._rate_lim) == 10_000  # nothing live but the channel buckets
    assert len(short._idle) == len(long._idle)
    rest_short, rest_long = held(short, "_rate_lim"), held(long, "_rate_lim")
    assert containers_and_instances(rest_short) == containers_and_instances(rest_long)
    assert abs(approx_deep_size(rest_short) - approx_deep_size(rest_long)) <= CONTAINER_SLACK


# ----------------------------------------------------------------------
# a recycled per-output state against one that is always built anew
# ----------------------------------------------------------------------
DESTINATIONS = [f"d{i}" for i in range(30)]
SOURCES = [f"s{i}" for i in range(10)]


def mixed_stream(steps, seed=31):
    """``("enqueue", source, destination, now)`` / ``("dequeue", count,
    None, now)`` steps: a hog that runs out of rounds, a few hot outputs
    that fill up and evict, many cold ones that come and go, and a pool
    small enough to overflow."""
    rng = random.Random(seed)
    now = 0.0
    for _ in range(steps):
        now += rng.expovariate(2000.0)
        roll = rng.random()
        if roll < 0.56:
            source = SOURCES[0] if rng.random() < 0.33 else rng.choice(SOURCES)
            hot = rng.random() < 0.6
            yield "enqueue", source, rng.choice(DESTINATIONS[:3] if hot else DESTINATIONS), now
        else:
            yield "dequeue", 500 if roll > 0.97 else 1, None, now


def make_mixed():
    shares = {source: 1 + i % 3 for i, source in enumerate(SOURCES)}
    fq = MopiFq(MopiFqConfig(max_poq_depth=30, max_round=12, pool_capacity=70, default_channel_rate=1500.0),
                share_of=shares.__getitem__)
    for destination in DESTINATIONS[:3]:
        fq.set_channel_capacity(destination, 100.0, 4.0)
    return fq


def run_step(fq, op, step):
    """One step of the stream on ``fq``; what each operation returned."""
    kind, first, destination, now = step
    if kind == "enqueue":
        status, evicted = fq.enqueue(first, destination, op, now)
        return [(status, evicted and vars(evicted))]
    served = []
    for _ in range(first):
        message = fq.dequeue(now)
        served.append(message and (message.source, message.destination, message.payload, message.arr_time))
        if message is None:
            break
    return served


def drive(fq, steps):
    for op, step in enumerate(mixed_stream(steps)):
        run_step(fq, op, step)


def test_entries_never_exceed_the_pool_capacity():
    fq = make_mixed()
    capacity, full = fq.config.pool_capacity, 0
    for op, step in enumerate(mixed_stream(20_000)):
        run_step(fq, op, step)
        assert entries_built(fq) <= capacity, op
        full += fq.total_depth == capacity
    assert full > 100 and entries_built(fq) == capacity


def test_recycled_state_is_indistinguishable_from_a_new_one():
    fq, fresh = make_mixed(), make_mixed()
    covered = dict.fromkeys(["reactivated", "refused_while_inactive"], 0)
    for op, step in enumerate(mixed_stream(20_000)):
        kind, _, destination, _ = step
        inactive = kind == "enqueue" and fq.queue_depth(destination) == 0
        parked = len(fq._idle)
        got = run_step(fq, op, step)
        assert got == run_step(fresh, op, step), op
        del fresh._idle[:]  # the reference never finds a state to reuse
        if inactive and parked:
            status = got[0][0]
            if status.ok:
                covered["reactivated"] += 1
                assert len(fq._idle) == parked - 1, op
            else:  # the state it would have taken is still parked
                covered["refused_while_inactive"] += 1
                assert status is EnqueueStatus.FAIL_QUEUE_OVERFLOW and len(fq._idle) == parked, op
        if op % 25 == 0:
            for name in DESTINATIONS:
                assert fq.queue_snapshot(name) == fresh.queue_snapshot(name), (op, name)
                assert fq.queued_sources(name) == fresh.queued_sources(name), (op, name)
            assert fq.state_entry_count() == fresh.state_entry_count(), op
            fq.check_invariants()

    assert vars(fq.stats) == vars(fresh.stats)
    stats = fq.stats
    assert min(stats.evicted, stats.fail_overspeed, stats.fail_congested, stats.fail_overflow) > 50, stats
    assert covered["reactivated"] > 1000 and covered["refused_while_inactive"] > 10, covered
    assert 0 < len(fq._idle) <= len(DESTINATIONS)


def test_a_state_that_served_later_rounds_restarts_at_round_zero():
    fq = MopiFq(MopiFqConfig(default_channel_rate=1e6))
    for i in range(3):
        fq.enqueue("s1", "d1", i, now=0.0)
    state = fq._poq["d1"]
    assert fq.queue_snapshot("d1") == [("s1", 0), ("s1", 1), ("s1", 2)]
    assert [fq.dequeue(0.0).payload for _ in range(3)] == [0, 1, 2]
    assert fq._idle == [state] and fq.active_outputs() == 0
    fq.check_invariants()  # the parked state is as good as new

    fq.enqueue("s2", "d2", "x", now=1.0)
    assert fq._poq["d2"] is state and not fq._idle
    assert fq.queue_snapshot("d2") == [("s2", 0)] and fq.queued_sources("d2") == {"s2": 1}
    fq.enqueue("s1", "d2", "y", now=1.0)  # s1's old record is gone: round 0, not 3
    assert fq.queue_snapshot("d2") == [("s2", 0), ("s1", 0)]
    fq.check_invariants()

    state.round_tails[5] = state.head  # a parked state with something left in it is caught
    fq.dequeue(1.0), fq.dequeue(1.0)
    with pytest.raises(AssertionError, match="idle per-output state not reset"):
        fq.check_invariants()


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def test_introspection_returns_what_it_did_before_the_records_were_merged():
    """The literals were computed with the scheduler that kept a source's
    latest round and its count in two dicts, on this stream."""
    fq = make_mixed()
    drive(fq, 5_000)
    assert fq.state_entry_count() == 129
    assert [fq.queue_depth(name) for name in DESTINATIONS] == [28, 23, 19] + [0] * 27
    assert fq.queued_sources("d0") == {"s8": 4, "s2": 7, "s5": 2, "s3": 2, "s9": 4, "s0": 3, "s1": 3, "s4": 2, "s6": 1}
    assert fq.queued_sources("d1") == {"s7": 7, "s6": 1, "s3": 1, "s1": 5, "s0": 2, "s5": 4, "s4": 2, "s9": 1}
    assert fq.queued_sources("nowhere") == {} and fq.queue_depth("nowhere") == 0


def test_state_bytes_is_everything_held_but_the_pool():
    """Figure 10's DCC state column: had ``state_bytes`` missed a table, what
    the scheduler reaches would outgrow it."""
    new, fq = make_mixed(), make_mixed()
    new._san = fq._san = False  # SimSan keeps a last-round table of its own
    fixed = approx_deep_size(held(new)) - new.state_bytes()
    assert 0 < fixed < 4096  # configuration, counters, the attribute dict itself

    drive(fq, 20_000)
    assert fq.total_depth > 0 and fq._idle and fq.state_bytes() > 10 * new.state_bytes()
    assert abs(approx_deep_size(held(fq)) - fq.state_bytes() - fixed) <= INT_SLACK

    fq.stats.per_source = {name: {source: 1 for source in SOURCES} for name in DESTINATIONS}
    assert approx_deep_size(held(fq)) - fq.state_bytes() - fixed > 10 * INT_SLACK
