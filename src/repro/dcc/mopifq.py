"""MOPI-FQ: multi-output pseudo-isolated fair queuing.

This is a faithful implementation of the paper's Appendix B pseudocode
(Figure 13) and the surrounding prose:

- a single **entry pool** of fixed capacity (``pool_capacity``) backs
  all per-output queues; freed entries form a linked free list
  (``avail_slots``) that ``enqueue`` takes from first, building an entry
  only when the list is empty, so the pool holds as many entries as
  were ever queued at once, never more than its capacity;
- each active output channel has a **flattened calendar queue**
  (Figure 7c): a doubly-linked run of entries logically divided into
  scheduling rounds, with per-round tail pointers (``round_tails``, a
  list of ``MAX_ROUND`` slots used as a ring: only rounds ``current ..
  current + MAX_ROUND - 1`` are ever queued, so slot ``r % MAX_ROUND``
  is round ``r``'s) and one record per queued source (``sources``:
  latest round, quota left in it, messages queued).  A queue whose last
  message leaves hands its state, reset, to an idle list that the next
  activation pops -- as free entries go back to the pool;
- an **ordered output sequence** (``out_seq``) keyed by the arrival time
  of each queue's head message (or the predicted availability time of a
  congested channel) decides which queue dequeues next -- preserving
  global arrival order up to fair-scheduling reordering and congestion.
  It is a ``heapq`` of ``(time, seq, destination)`` tuples holding
  exactly one tuple per active output: pushed with the queue's first
  message, replaced where it lies -- it is the top of the heap -- when
  ``dequeue`` installs a new head or parks a congested channel at its
  retry time, popped with the queue's last message.  Nothing else
  re-keys a queue: its head is always in its current round, so an
  arrival never lands in front of it, and an eviction takes the tail
  of the latest of at least two rounds, never the head;
- a **token bucket per channel** enforces the channel capacity, defined
  as min(ingress limit of the upstream, egress limit of the resolver).

Enqueue failure modes follow Figure 13 exactly:

- ``FAIL_CLIENT_OVERSPEED``: the source's next round would exceed
  ``current_round + MAX_ROUND`` -- the client alone is overrunning its
  fair share window;
- ``FAIL_CHANNEL_CONGESTED``: the output queue is at ``MAX_POQ_DEPTH``
  and the message would land in or after the latest round;
- ``FAIL_QUEUE_OVERFLOW``: the shared pool is exhausted (and the message
  cannot displace a later-round one).

When a full queue receives a message destined for an *earlier* round
than the latest (i.e. from a source below its fair share), the message
at the tail of the latest round is evicted to make room, which is the
mechanism behind the max-min fairness proof (Appendix B.2: "evicting out
a message of some other source from the latest round if the queue is
full").

Per-source shares are supported per Appendix B.1.3: a source with share
``w`` may place ``w`` messages in each scheduling round.

Complexities, as analysed in B.1: space ``O(|O| + q)``; enqueue and
dequeue worst-case ``O(log |O|)`` (the logarithm comes solely from
``out_seq``).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import sanitize as simsan
from repro.obs import NULL_OBS
from repro.util.memsize import approx_deep_size
from repro.util.tokenbucket import TokenBucket

#: SimSan: run the full O(depth) structural check every Nth operation
#: (the O(1)/O(sources) checks run on every operation)
_SAN_FULL_CHECK_EVERY = 256

#: an ``out_seq`` tuple: (ready time, tie-break sequence, destination)
_OutKey = Tuple[float, int, str]


class EnqueueStatus(enum.Enum):
    SUCCESS = "success"
    FAIL_CLIENT_OVERSPEED = "client_overspeed"
    FAIL_CHANNEL_CONGESTED = "channel_congested"
    FAIL_QUEUE_OVERFLOW = "queue_overflow"

    @property
    def ok(self) -> bool:
        return self is EnqueueStatus.SUCCESS


@dataclass
class MopiFqConfig:
    """Scheduler parameters (defaults follow the paper's evaluation
    setup, Section 5: per-queue capacity 100, MAX_ROUND 75, pool 100K)."""

    max_poq_depth: int = 100
    max_round: int = 75
    pool_capacity: int = 100_000
    #: default capacity (queries/second, burst equal to one second of
    #: it) for channels without an explicit entry; the shim overrides
    #: per destination.
    default_channel_rate: float = 1000.0


class DequeuedMessage:
    """What :meth:`MopiFq.dequeue` hands back (one per served message, so
    slotted and built positionally)."""

    __slots__ = ("source", "destination", "payload", "arr_time")

    def __init__(self, source: str, destination: str, payload: Any, arr_time: float) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.arr_time = arr_time

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DequeuedMessage):
            return NotImplemented
        return (self.source, self.destination, self.payload, self.arr_time) == (
            other.source, other.destination, other.payload, other.arr_time)

    def __repr__(self) -> str:
        return (
            f"DequeuedMessage(source={self.source!r}, destination={self.destination!r}, "
            f"payload={self.payload!r}, arr_time={self.arr_time!r})"
        )


@dataclass
class EvictedMessage:
    """A queued message displaced by a fairer arrival."""

    source: str
    destination: str
    payload: Any


class _QEntry:
    """Pool entry: doubly linked, also reused as a free-list node."""

    __slots__ = ("next", "prev", "source", "payload", "arr_time", "round")

    def __init__(self) -> None:
        self.next: Optional["_QEntry"] = None
        self.prev: Optional["_QEntry"] = None
        self.source: str = ""
        self.payload: Any = None
        self.arr_time: float = 0.0
        self.round: int = 0


class _PoqState:
    """Per-output-queue state (``poq_state`` in the pseudocode)."""

    __slots__ = (
        "depth",
        "head",
        "round_tails",
        "current_round",
        "latest_round",
        "sources",
    )

    def __init__(self, max_round: int) -> None:
        self.depth = 0
        self.head: Optional[_QEntry] = None
        #: tail entry of each queued round, slot ``round % max_round``
        self.round_tails: List[Optional[_QEntry]] = [None] * max_round
        self.current_round = 0
        #: highest round with a queued message
        self.latest_round = -1
        #: source -> [latest round enqueued, quota left in it, messages queued],
        #: kept exactly as long as the source has messages queued here (B.1.1)
        self.sources: Dict[str, List[int]] = {}


@dataclass
class MopiFqStats:
    enqueued: int = 0
    dequeued: int = 0
    evicted: int = 0
    fail_overspeed: int = 0
    fail_congested: int = 0
    fail_overflow: int = 0
    dequeue_empty: int = 0


class MopiFq:
    """The MOPI-FQ scheduler.

    ``share_of`` maps a source to its integral share (Section 3.2.1's
    client share allocation); without one everyone has share 1.
    """

    def __init__(
        self,
        config: Optional[MopiFqConfig] = None,
        share_of: Optional[Callable[[str], int]] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.config = config or MopiFqConfig()
        for name, least in (("max_round", 1), ("max_poq_depth", 1), ("pool_capacity", 0)):
            if getattr(self.config, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self.config, name)}")
        self.share_of = share_of
        #: SimSan: verify scheduler invariants after every operation
        #: (defaults to the REPRO_SIMSAN environment switch)
        self._san = simsan.ENABLED if sanitize is None else bool(sanitize)
        self._san_last_round: Dict[str, int] = {}
        self._san_ops = 0
        #: intrusive free list of entries built so far and not queued; with the
        #: queued ones never more than ``pool_capacity`` (``enqueue`` checks it)
        self._avail: Optional[_QEntry] = None
        self.total_depth = 0

        self._poq: Dict[str, _PoqState] = {}
        #: reset states of inactive outputs, for the next activation; never more than the peak of ``len(self._poq)``
        self._idle: List[_PoqState] = []
        self._rate_lim: Dict[str, TokenBucket] = {}
        self._out_seq: List[_OutKey] = []
        self._seq = itertools.count()
        self.stats = MopiFqStats()
        #: observability facade (one enabled-test per op when off)
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # channel configuration
    # ------------------------------------------------------------------
    def set_channel_capacity(
        self, destination: str, rate: float, burst: Optional[float] = None
    ) -> None:
        """Fix a channel's capacity: min(upstream ingress RL, own egress
        RL), learned by probing, operator config, or DCC signaling
        (Section 3.2.1 footnote)."""
        self._rate_lim[destination] = TokenBucket(rate, burst)

    def channel_bucket(self, destination: str) -> TokenBucket:
        bucket = self._rate_lim.get(destination)
        if bucket is None:
            bucket = TokenBucket(self.config.default_channel_rate)
            self._rate_lim[destination] = bucket
        return bucket

    # ------------------------------------------------------------------
    # enqueue (Figure 13 right column)
    # ------------------------------------------------------------------
    def enqueue(
        self, source: str, destination: str, payload: Any, now: float
    ) -> Tuple[EnqueueStatus, Optional[EvictedMessage]]:
        """Insert a message; returns the status and any evicted victim."""
        config = self.config
        state = self._poq.get(destination)
        if state is None:
            # joins ``_poq`` and ``out_seq``, and leaves the idle list, with its first message -- if that is admitted
            idle = self._idle
            state = idle[-1] if idle else _PoqState(config.max_round)

        crt_r = state.current_round
        lat_r = state.latest_round
        # ``get_src_next_round``: where this source's next message goes.
        record = state.sources.get(source)
        if record is None:
            src_nxt = crt_r
        else:
            src_nxt = record[0] if record[1] > 0 else record[0] + 1
            if src_nxt < crt_r:
                src_nxt = crt_r

        if src_nxt >= crt_r + config.max_round:
            self.stats.fail_overspeed += 1
            return EnqueueStatus.FAIL_CLIENT_OVERSPEED, None

        # An eviction below never takes a message of ``source`` (a source
        # with a message in the latest round is rejected, not admitted by
        # eviction), so ``record`` stays this source's record throughout.
        evicted: Optional[EvictedMessage] = None
        if state.depth >= config.max_poq_depth:
            if src_nxt >= lat_r:
                self.stats.fail_congested += 1
                return EnqueueStatus.FAIL_CHANNEL_CONGESTED, None
            evicted = self._evict_latest(destination, state)

        if self.total_depth >= config.pool_capacity:
            if src_nxt >= lat_r or state.depth == 0:
                self.stats.fail_overflow += 1
                return EnqueueStatus.FAIL_QUEUE_OVERFLOW, None
            if evicted is None:
                evicted = self._evict_latest(destination, state)

        entry = self._avail
        if entry is None:  # built on first need
            entry = _QEntry()
        else:
            self._avail = entry.next
            entry.next = None
        entry.source = source
        entry.payload = payload
        entry.arr_time = now
        entry.round = src_nxt
        self._append_to_round(destination, state, entry)

        # Source bookkeeping: one more message, one unit of quota spent.
        if record is not None and record[0] == src_nxt and record[1] > 0:
            record[1] -= 1
            record[2] += 1
        else:
            share_of = self.share_of
            share = 1 if share_of is None else max(1, int(share_of(source)))
            state.sources[source] = [src_nxt, share - 1, 1 if record is None else record[2] + 1]
        self.total_depth += 1
        self.stats.enqueued += 1
        if self.obs.enabled:
            self.obs.observe("mopifq.enqueue_depth", state.depth)
        if self._san:
            self._sanitize_op(destination)
        return EnqueueStatus.SUCCESS, evicted

    def _append_to_round(self, destination: str, state: _PoqState, entry: _QEntry) -> None:
        """``append_poq_round``: link the entry at the end of its round."""
        round_no = entry.round
        tails = state.round_tails
        size = len(tails)
        anchor = tails[round_no % size]
        if anchor is None:
            # End of the nearest non-empty earlier round (bounded scan:
            # at most MAX_ROUND slots -> constant time).
            probe = round_no - 1
            while probe >= state.current_round:
                anchor = tails[probe % size]
                if anchor is not None:
                    break
                probe -= 1

        if anchor is None:
            # No round from the current one up to the entry's holds a
            # message.  An active queue's head is in its current round,
            # so this is the first message of an inactive output: the
            # one point where an output and its tuple come into being.
            assert state.head is None, "new head in front of a queued one"
            state.head = entry
            self._poq[destination] = state
            if self._idle:  # ``state`` is the last of them
                self._idle.pop()
            heapq.heappush(self._out_seq, (entry.arr_time, next(self._seq), destination))
        else:
            entry.next = anchor.next
            entry.prev = anchor
            if anchor.next is not None:
                anchor.next.prev = entry
            anchor.next = entry

        tails[round_no % size] = entry
        if round_no > state.latest_round:
            state.latest_round = round_no
        state.depth += 1

    # ------------------------------------------------------------------
    # dequeue (Figure 13 left column)
    # ------------------------------------------------------------------
    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        """Pick the ready channel whose head arrived earliest and pop it.

        Congested channels are re-keyed in ``out_seq`` at their predicted
        availability time; returns ``None`` when no channel is ready
        (``FAIL_NO_DATA_OR_ALL_CONGESTED``).

        The served queue's tuple is the top of ``out_seq`` from the
        moment it is read until the queue's head is gone, so it is
        popped or replaced where it lies.
        """
        heap = self._out_seq
        poq = self._poq
        while True:
            if not heap or heap[0][0] > now:
                self.stats.dequeue_empty += 1
                return None
            destination = heap[0][2]
            bucket = self.channel_bucket(destination)
            if bucket.try_consume(now):
                break
            # Skip and retry when the bucket predicts availability.
            heapq.heapreplace(heap, (bucket.next_available(now), next(self._seq), destination))

        state = poq[destination]
        entry = state.head
        assert entry is not None
        source = entry.source
        result = DequeuedMessage(source, destination, entry.payload, entry.arr_time)
        successor = entry.next
        tails = state.round_tails
        slot = entry.round % len(tails)
        if successor is None:
            # The queue's last message: its tuple goes with it, its state --
            # one tail slot and one source record still set -- to the idle list.
            heapq.heappop(heap)
            del poq[destination]
            state.head = tails[slot] = None
            del state.sources[source]
            state.depth = state.current_round = 0
            state.latest_round = -1
            self._idle.append(state)
        else:
            successor.prev = None
            state.head = successor
            if tails[slot] is entry:
                # alone in its round; a later round exists (the successor's)
                tails[slot] = None
            record = state.sources[source]
            if record[2] > 1:
                record[2] -= 1
            else:
                del state.sources[source]
            state.depth -= 1
            state.current_round = successor.round
            heapq.heapreplace(heap, (successor.arr_time, next(self._seq), destination))
        self.total_depth -= 1

        entry.payload = None
        entry.source = ""
        entry.next = self._avail
        self._avail = entry

        self.stats.dequeued += 1
        if self._san:
            self._sanitize_op(destination)
        return result

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time a dequeue might succeed; None when empty.

        Drives the event-driven dequeue pump in the shim (the paper's
        prototype burns a busy-waiting thread instead; virtual time lets
        us do better without changing behaviour).
        """
        heap = self._out_seq
        return max(heap[0][0], now) if heap else None

    def _evict_latest(self, destination: str, state: _PoqState) -> EvictedMessage:
        """Displace the tail of the latest round (fairness eviction).

        ``enqueue`` evicts only for a message bound for a round before
        the latest, so the queue spans at least two rounds: the victim,
        its last entry, has a predecessor, and the head -- with it
        ``current_round`` and the queue's ``out_seq`` tuple -- stays.
        """
        tails = state.round_tails
        slot = state.latest_round % len(tails)
        victim = tails[slot]
        assert victim is not None, "latest round must be non-empty"
        before = victim.prev
        assert before is not None, "eviction would take the queue's head"
        before.next = None
        if before.round == victim.round:
            tails[slot] = before
        else:
            tails[slot] = None
            state.latest_round = before.round

        source = victim.source
        record = state.sources[source]
        if record[2] > 1:
            record[2] -= 1
        else:
            del state.sources[source]
        state.depth -= 1
        self.total_depth -= 1

        evicted = EvictedMessage(source=source, destination=destination, payload=victim.payload)
        victim.payload = None
        victim.source = ""
        victim.prev = None
        victim.next = self._avail
        self._avail = victim
        self.stats.evicted += 1
        return evicted

    def unlink_queued(self) -> None:
        """Clear every queued entry's back link, for a scheduler being dropped
        (a crashed host's): the rest is singly linked and dies by refcount."""
        for state in self._poq.values():
            entry = state.head
            while entry is not None:
                entry.prev = None
                entry = entry.next

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def active_outputs(self) -> int:
        return len(self._poq)

    def queue_depth(self, destination: str) -> int:
        state = self._poq.get(destination)
        return state.depth if state is not None else 0

    def queued_sources(self, destination: str) -> Dict[str, int]:
        state = self._poq.get(destination)
        return {source: record[2] for source, record in state.sources.items()} if state is not None else {}

    def queue_snapshot(self, destination: str) -> List[Tuple[str, int]]:
        """(source, round) pairs in queue order, for tests/invariants."""
        state = self._poq.get(destination)
        if state is None:
            return []
        snapshot = []
        entry = state.head
        while entry is not None:
            snapshot.append((entry.source, entry.round))
            entry = entry.next
        return snapshot

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property tests."""
        depth_sum = 0
        for destination, state in self._poq.items():
            snapshot = self.queue_snapshot(destination)
            assert len(snapshot) == state.depth, f"{destination}: depth mismatch"
            rounds = [r for _, r in snapshot]
            assert rounds == sorted(rounds), f"{destination}: rounds not monotone"
            if rounds:
                assert rounds[0] == state.current_round
                assert rounds[-1] == state.latest_round
                assert state.latest_round < state.current_round + self.config.max_round
            counts = Counter(source for source, _ in snapshot)
            assert counts == self.queued_sources(destination), f"{destination}: source counts"
            for (source, round_no), cnt in Counter(snapshot).items():
                share = 1 if self.share_of is None else max(1, int(self.share_of(source)))
                assert cnt <= share, (
                    f"{destination}: source {source} has {cnt} > share {share} "
                    f"messages in round {round_no}"
                )
            depth_sum += state.depth
        assert depth_sum == self.total_depth, "total_depth mismatch"
        for state in self._idle:
            assert (state.depth, state.head, state.current_round, state.latest_round) == (0, None, 0, -1) \
                and not state.sources and not any(state.round_tails), "idle per-output state not reset"
        heap = self._out_seq
        assert all(heap[(i - 1) >> 1] <= heap[i] for i in range(1, len(heap))), "out_seq heap order broken"
        assert len(heap) == len(self._poq), "out_seq size differs from the active outputs"
        assert {key[2] for key in heap} == self._poq.keys(), "out_seq does not name each active output once"

    # ------------------------------------------------------------------
    # SimSan runtime checks
    # ------------------------------------------------------------------
    def _sanitize_op(self, destination: str) -> None:
        """SimSan (paper Appendix B invariants), run after every
        enqueue/dequeue when sanitizing:

        - message conservation: enqueued = dequeued + evicted + queued;
        - active-source accounting consistent with queue occupancy;
        - per-output scheduling rounds never move backwards while the
          output stays active;
        - the full structural :meth:`check_invariants` every
          ``_SAN_FULL_CHECK_EVERY`` operations.
        """
        stats = self.stats
        queued = stats.enqueued - stats.dequeued - stats.evicted
        if queued != self.total_depth:
            simsan.fail(
                "message conservation broken: enqueued "
                f"{stats.enqueued} != dequeued {stats.dequeued} + evicted "
                f"{stats.evicted} + queued {self.total_depth}"
            )
        state = self._poq.get(destination)
        if state is None:
            self._san_last_round.pop(destination, None)
        else:
            occupancy = sum(record[2] for record in state.sources.values())
            if occupancy != state.depth:
                simsan.fail(
                    f"{destination}: active-source accounting ({occupancy} "
                    f"messages across {len(state.sources)} sources) "
                    f"disagrees with queue depth {state.depth}"
                )
            last = self._san_last_round.get(destination)
            if last is not None and state.current_round < last:
                simsan.fail(
                    f"{destination}: per-output virtual time moved backwards "
                    f"(round {last} -> {state.current_round})"
                )
            self._san_last_round[destination] = state.current_round
        self._san_ops += 1
        if self._san_ops % _SAN_FULL_CHECK_EVERY == 0:
            try:
                self.check_invariants()
            except AssertionError as exc:
                raise simsan.SimSanViolation(
                    f"structural invariant violation: {exc}"
                ) from exc

    def state_entry_count(self) -> int:
        """Number of live state entries (Table 1 / Figure 10 accounting):
        queued messages + per-output structures + per-source trackers."""
        per_source = sum(len(state.sources) for state in self._poq.values())
        return self.total_depth + len(self._poq) + len(self._rate_lim) + per_source

    def per_output_entries(self) -> int:
        """Active and idle queue states plus channel buckets (Table 1's per-server row)."""
        return len(self._poq) + len(self._idle) + len(self._rate_lim)

    def state_bytes(self) -> int:
        """Resident bytes of everything held but the free list's entries
        and what is of fixed size (Figure 10): active and idle per-output
        states with the entries queued in them, channel buckets, ``out_seq``."""
        return approx_deep_size((self._poq, self._idle, self._rate_lim, self._out_seq))
