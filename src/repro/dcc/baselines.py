"""Baseline schedulers from the MO-FQ design space (paper Figure 7).

These exist to reproduce the paper's design-space arguments as runnable
ablations:

- :class:`FifoScheduler` -- no fairness at all (what a vanilla resolver
  effectively does: first query in, first query out);
- :class:`InputCentricFq` -- Nagle's textbook per-source FIFOs with
  round-robin service (Figure 7a top): suffers head-of-line blocking
  when a source's head message targets a congested channel;
- :class:`LeapfrogInputFq` -- the "plausible fix" that relaxes FIFO and
  leaps over blocked heads (Figure 7a bottom): still drops messages to
  healthy channels once a blocked queue fills up;
- :class:`IoIsolatedFq` -- separate per-(source, output) FIFOs
  (Figure 7b): fair, but O(|S|*|O|) state and inflated queuing delay;
- :class:`OutputCentricFq` -- per-output flattened calendar queues with
  round-robin across outputs (Figure 7c without the shared pool or the
  arrival-ordered output sequence).

All schedulers share MOPI-FQ's external interface so the DCC shim and
the benchmarks can swap them in: ``enqueue(source, destination, payload,
now)`` and ``dequeue(now)``, with per-channel token buckets capping each
output channel's rate.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.dcc.mopifq import DequeuedMessage, EnqueueStatus, EvictedMessage
from repro.util.tokenbucket import TokenBucket


class _ChannelMixin:
    """Shared per-destination token-bucket handling."""

    def __init__(self, default_rate: float) -> None:
        self._default_rate = default_rate
        self._rate_lim: Dict[str, TokenBucket] = {}

    def set_channel_capacity(self, destination: str, rate: float, burst: Optional[float] = None) -> None:
        self._rate_lim[destination] = TokenBucket(rate, burst)

    def channel_bucket(self, destination: str) -> TokenBucket:
        bucket = self._rate_lim.get(destination)
        if bucket is None:
            bucket = TokenBucket(self._default_rate)
            self._rate_lim[destination] = bucket
        return bucket


class FifoScheduler(_ChannelMixin):
    """One global FIFO; the null hypothesis of the design space."""

    def __init__(self, capacity: int = 100_000, default_rate: float = 1000.0) -> None:
        super().__init__(default_rate)
        self.capacity = capacity
        self._queue: Deque[Tuple[str, str, Any, float]] = deque()

    def enqueue(
        self, source: str, destination: str, payload: Any, now: float
    ) -> Tuple[EnqueueStatus, Optional[EvictedMessage]]:
        if len(self._queue) >= self.capacity:
            return EnqueueStatus.FAIL_QUEUE_OVERFLOW, None
        self._queue.append((source, destination, payload, now))
        return EnqueueStatus.SUCCESS, None

    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        # Strict FIFO: a congested head blocks everything behind it --
        # the global head-of-line pathology.
        if not self._queue:
            return None
        source, destination, payload, arr = self._queue[0]
        if not self.channel_bucket(destination).try_consume(now):
            return None
        self._queue.popleft()
        return DequeuedMessage(source, destination, payload, arr)

    def next_ready_time(self, now: float) -> Optional[float]:
        if not self._queue:
            return None
        destination = self._queue[0][1]
        return max(now, self.channel_bucket(destination).next_available(now))


class InputCentricFq(_ChannelMixin):
    """Nagle's FQ: per-source FIFOs, round-robin service (Figure 7a top).

    Fair in the single-output world it was designed for; in the
    multi-output setting a congested channel blocks the whole source
    queue, starving that source's traffic to *healthy* channels.
    """

    def __init__(self, per_source_depth: int = 100, default_rate: float = 1000.0) -> None:
        super().__init__(default_rate)
        self.per_source_depth = per_source_depth
        self._queues: "OrderedDict[str, Deque[Tuple[str, Any, float]]]" = OrderedDict()
        self._rr: List[str] = []
        self._rr_pos = 0

    def enqueue(
        self, source: str, destination: str, payload: Any, now: float
    ) -> Tuple[EnqueueStatus, Optional[EvictedMessage]]:
        queue = self._queues.get(source)
        if queue is None:
            queue = deque()
            self._queues[source] = queue
            self._rr.append(source)
        if len(queue) >= self.per_source_depth:
            # The defining failure mode: the drop happens regardless of
            # which channel the *new* message targets.
            return EnqueueStatus.FAIL_CHANNEL_CONGESTED, None
        queue.append((destination, payload, now))
        return EnqueueStatus.SUCCESS, None

    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        if not self._rr:
            return None
        n = len(self._rr)
        for offset in range(n):
            source = self._rr[(self._rr_pos + offset) % n]
            queue = self._queues.get(source)
            if not queue:
                continue
            destination, payload, arr = queue[0]  # head only: FIFO
            if self.channel_bucket(destination).try_consume(now):
                queue.popleft()
                self._rr_pos = (self._rr_pos + offset + 1) % n
                self._compact(source, queue)
                return DequeuedMessage(source, destination, payload, arr)
        return None

    def _compact(self, source: str, queue: Deque) -> None:
        if not queue:
            del self._queues[source]
            self._rr.remove(source)
            if self._rr:
                self._rr_pos %= len(self._rr)
            else:
                self._rr_pos = 0

    def next_ready_time(self, now: float) -> Optional[float]:
        times = [
            self.channel_bucket(queue[0][0]).next_available(now)
            for queue in self._queues.values()
            if queue
        ]
        return max(now, min(times)) if times else None


class LeapfrogInputFq(InputCentricFq):
    """Input-centric FQ that may leap over a blocked head (Figure 7a
    bottom).

    Fixes the service-side HOL blocking but not the drop-side unfairness:
    once a queue fills with messages to a congested channel, arrivals to
    healthy channels are still rejected.
    """

    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        if not self._rr:
            return None
        n = len(self._rr)
        for offset in range(n):
            source = self._rr[(self._rr_pos + offset) % n]
            queue = self._queues.get(source)
            if not queue:
                continue
            for index, (destination, payload, arr) in enumerate(queue):
                if self.channel_bucket(destination).try_consume(now):
                    del queue[index]
                    self._rr_pos = (self._rr_pos + offset + 1) % n
                    self._compact(source, queue)
                    return DequeuedMessage(source, destination, payload, arr)
        return None

    def next_ready_time(self, now: float) -> Optional[float]:
        times = [
            self.channel_bucket(destination).next_available(now)
            for queue in self._queues.values()
            for destination, _, _ in queue
        ]
        return max(now, min(times)) if times else None


class IoIsolatedFq(_ChannelMixin):
    """Separate per-(source, output) FIFOs (Figure 7b).

    Achieves the fairness goal -- no cross-channel interference -- at the
    cost the paper rejects: O(|S|*|O|) queues and the resource-exhaustion
    attack surface that comes with them.  Service order: round-robin over
    outputs, then round-robin over that output's sources.
    """

    def __init__(self, per_queue_depth: int = 100, default_rate: float = 1000.0) -> None:
        super().__init__(default_rate)
        self.per_queue_depth = per_queue_depth
        #: destination -> source -> FIFO
        self._queues: "OrderedDict[str, OrderedDict[str, Deque[Tuple[Any, float]]]]" = OrderedDict()
        self._out_rr: List[str] = []
        self._out_pos = 0
        self._src_pos: Dict[str, int] = {}

    def enqueue(
        self, source: str, destination: str, payload: Any, now: float
    ) -> Tuple[EnqueueStatus, Optional[EvictedMessage]]:
        per_dst = self._queues.get(destination)
        if per_dst is None:
            per_dst = OrderedDict()
            self._queues[destination] = per_dst
            self._out_rr.append(destination)
            self._src_pos[destination] = 0
        queue = per_dst.get(source)
        if queue is None:
            queue = deque()
            per_dst[source] = queue
        if len(queue) >= self.per_queue_depth:
            return EnqueueStatus.FAIL_CHANNEL_CONGESTED, None
        queue.append((payload, now))
        return EnqueueStatus.SUCCESS, None

    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        if not self._out_rr:
            return None
        n_out = len(self._out_rr)
        for out_offset in range(n_out):
            destination = self._out_rr[(self._out_pos + out_offset) % n_out]
            per_dst = self._queues.get(destination)
            if not per_dst:
                continue
            if not self.channel_bucket(destination).available(now):
                continue
            sources = list(per_dst.keys())
            pos = self._src_pos.get(destination, 0)
            for src_offset in range(len(sources)):
                source = sources[(pos + src_offset) % len(sources)]
                queue = per_dst[source]
                if not queue:
                    del per_dst[source]
                    continue
                if not self.channel_bucket(destination).try_consume(now):
                    break
                payload, arr = queue.popleft()
                if not queue:
                    del per_dst[source]
                self._src_pos[destination] = (pos + src_offset + 1) % max(1, len(sources))
                self._out_pos = (self._out_pos + out_offset + 1) % n_out
                return DequeuedMessage(source, destination, payload, arr)
        return None

    def next_ready_time(self, now: float) -> Optional[float]:
        times = [
            self.channel_bucket(destination).next_available(now)
            for destination, per_dst in self._queues.items()
            if any(per_dst.values())
        ]
        return max(now, min(times)) if times else None


class OutputCentricFq(_ChannelMixin):
    """Per-output calendar queues served round-robin (Figure 7c without
    MOPI-FQ's shared pool and arrival-order output sequence).

    Fair per channel, but round-robin across outputs reorders messages
    with respect to arrival, inflating queuing delay -- the issue
    MOPI-FQ's ``out_seq`` removes.
    """

    def __init__(self, per_queue_depth: int = 100, max_round: int = 75, default_rate: float = 1000.0) -> None:
        super().__init__(default_rate)
        self.per_queue_depth = per_queue_depth
        self.max_round = max_round
        #: destination -> list of (source, payload, arr, round) kept sorted by round
        self._queues: "OrderedDict[str, List[Tuple[str, Any, float, int]]]" = OrderedDict()
        self._latest: Dict[str, Dict[str, int]] = {}
        self._current: Dict[str, int] = {}
        self._out_rr: List[str] = []
        self._out_pos = 0

    def enqueue(
        self, source: str, destination: str, payload: Any, now: float
    ) -> Tuple[EnqueueStatus, Optional[EvictedMessage]]:
        queue = self._queues.get(destination)
        if queue is None:
            queue = []
            self._queues[destination] = queue
            self._latest[destination] = {}
            self._current[destination] = 0
            self._out_rr.append(destination)
        current = self._current[destination]
        latest = self._latest[destination]
        round_no = max(latest.get(source, current - 1) + 1, current)
        if round_no >= current + self.max_round:
            return EnqueueStatus.FAIL_CLIENT_OVERSPEED, None
        if len(queue) >= self.per_queue_depth:
            return EnqueueStatus.FAIL_CHANNEL_CONGESTED, None
        # Insert at the end of its round (stable: scan from the back).
        index = len(queue)
        while index > 0 and queue[index - 1][3] > round_no:
            index -= 1
        queue.insert(index, (source, payload, now, round_no))
        latest[source] = round_no
        return EnqueueStatus.SUCCESS, None

    def dequeue(self, now: float) -> Optional[DequeuedMessage]:
        if not self._out_rr:
            return None
        n = len(self._out_rr)
        for offset in range(n):
            destination = self._out_rr[(self._out_pos + offset) % n]
            queue = self._queues.get(destination)
            if not queue:
                continue
            if not self.channel_bucket(destination).try_consume(now):
                continue
            source, payload, arr, round_no = queue.pop(0)
            self._out_pos = (self._out_pos + offset + 1) % n
            if queue:
                self._current[destination] = queue[0][3]
            else:
                self._current[destination] = round_no + 1
                self._latest[destination].clear()
            latest = self._latest[destination]
            if latest.get(source, -1) < self._current[destination] and not any(
                src == source for src, _, _, _ in queue
            ):
                latest.pop(source, None)
            return DequeuedMessage(source, destination, payload, arr)
        return None

    def next_ready_time(self, now: float) -> Optional[float]:
        times = [
            self.channel_bucket(destination).next_available(now)
            for destination, queue in self._queues.items()
            if queue
        ]
        return max(now, min(times)) if times else None
