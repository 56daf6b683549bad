"""The discrete-event simulator core.

A binary heap of ``(time, seq, event)`` tuples, which compare in C,
drives virtual time forward.  Events scheduled for the same instant fire
in scheduling order (the monotone, unique ``seq`` breaks ties before the
event is ever compared), which keeps runs deterministic regardless of
hash seeds or dict ordering.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import sanitize as simsan


class Event:
    """A scheduled callback; cancel() makes it a no-op."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference while the event sits in the owner's heap, so the
        # owner can track how much of the heap is dead weight.  Cleared
        # when the event is popped; cancelling after that is a no-op.
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()


#: a heap entry: ordered by (time, seq) as they were when scheduled
_HeapEntry = Tuple[float, int, Event]


class Simulator:
    """Virtual clock + event heap + named deterministic PRNG streams."""

    #: compact the heap only once it holds at least this many events
    #: (tiny heaps are cheaper to drain than to rebuild)
    COMPACT_MIN_SIZE = 64

    def __init__(self, seed: int = 42, sanitize: Optional[bool] = None) -> None:
        #: current virtual time in seconds; a plain attribute (it is read
        #: on every message hop) that only :meth:`run` writes
        self.now = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._seed = seed
        self._rngs: Dict[str, random.Random] = {}
        self.events_processed = 0
        #: cancelled events still sitting in the heap (lazy cancellation)
        self._cancelled = 0
        self.compactions = 0
        #: SimSan: check heap monotonicity and compaction soundness at
        #: runtime (defaults to the REPRO_SIMSAN environment switch)
        self.sanitize = simsan.ENABLED if sanitize is None else bool(sanitize)
        #: observability sampler, invoked with the new clock value on
        #: every advance.  Riding the run loop instead of scheduling
        #: keeps the event count -- and thus the selfcheck digest --
        #: identical whether or not anything is observing.
        self.obs_tick: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # time and randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """A PRNG dedicated to ``stream``.

        Separate streams mean, e.g., attacker name generation cannot
        perturb network jitter: each consumer draws from its own
        deterministic sequence.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(f"{self._seed}:{stream}")
            self._rngs[stream] = rng
        return rng

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = Event(time, fn, args, sim=self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def _note_cancelled(self) -> None:
        """Lazy cancellation bookkeeping: every answered query cancels a
        timeout event that would otherwise linger in the heap until its
        deadline.  Once more than half the queue is dead, rebuilding the
        heap is cheaper than sifting the corpses through every push/pop.
        """
        self._cancelled += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap if not entry[2].cancelled]
        before = sorted(live) if self.sanitize else None
        # in place: run() holds a reference to the list across callbacks
        self._heap[:] = self._rebuild_heap(live)
        if before is not None:
            after = sorted(self._heap)
            if before != after:
                simsan.fail(
                    "heap compaction changed the live-event multiset "
                    f"({len(before)} events before, {len(after)} after)"
                )
        self._cancelled = 0
        self.compactions += 1

    def _rebuild_heap(self, live: List[_HeapEntry]) -> List[_HeapEntry]:
        """Heapify the surviving entries (split out so SimSan can verify
        the live-event multiset across any alternative implementation)."""
        heapq.heapify(live)
        return live

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn`` at the current instant, after already-queued
        same-instant events."""
        return self.schedule(0.0, fn, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` so periodic samplers see a full final interval.
        """
        processed = 0
        heap = self._heap
        while heap and (max_events is None or processed < max_events):
            if until is not None and heap[0][0] > until:
                break
            event = heapq.heappop(heap)[2]
            event._sim = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            if self.sanitize and event.time < self.now:
                simsan.fail(
                    f"event dequeued in the past: t={event.time!r} < now={self.now!r} ({event!r})"
                )
            self.now = event.time
            if self.obs_tick is not None:
                self.obs_tick(event.time)
            event.fn(*event.args)
            processed += 1
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = until
            if self.obs_tick is not None:
                self.obs_tick(until)

    def pending(self) -> int:
        """Number of live (non-cancelled) queued events."""
        return len(self._heap) - self._cancelled
