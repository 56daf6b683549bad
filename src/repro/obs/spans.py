"""Per-query trace spans: one causal tree per client request.

A *span* is a named interval of virtual time on a *track* (one per
simulated entity: ``client:10.1.0.1``, ``resolver:10.0.1.1``,
``mopifq:10.0.1.1``, ``auth:10.0.0.2``, ...).  Spans nest through
``parent_id``: the root span is minted when a client request reaches
resolver ingress, resolution tasks hang off it, upstream queries hang
off their task, MOPI-FQ queue waits hang off the upstream query, and so
on -- so one query's full life (queue wait, RTO backoffs, cache hits,
conviction events) reads as one tree.

*Instants* are zero-duration marks on a track (retransmit fired, breaker
opened, policing verdict) that annotate the tree without nesting.

The tracer is append-only and pure: it never schedules events, draws
randomness, or touches the network, so enabling it cannot perturb the
simulation (the determinism guard test pins this).  Memory is bounded by
``max_spans``; overflow drops new spans and counts them.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

#: parent_id of a root span / sentinel "no parent"
NO_PARENT = 0

#: end time of a span that has not finished yet
OPEN = -1.0


class SpanRecord:
    """One interval on a track.  ``end`` is :data:`OPEN` until closed."""

    __slots__ = ("span_id", "parent_id", "name", "track", "start", "end", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        track: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start = start
        self.end = OPEN
        self.args: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end != OPEN else 0.0


class InstantRecord:
    """A zero-duration mark on a track."""

    __slots__ = ("name", "track", "time", "args")

    def __init__(self, name: str, track: str, time: float, args: Dict[str, Any]) -> None:
        self.name = name
        self.track = track
        self.time = time
        self.args = args


class Tracer:
    """Append-only span/instant store with integer span handles.

    Handles are plain ints so instrumented objects can stash them in
    ``__slots__`` dataclasses without importing obs types; handle 0
    (:data:`NO_PARENT`) is the universal "no span" value the no-op
    facade returns, and every mutator ignores it.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.dropped = 0
        self._by_id: Dict[int, SpanRecord] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str,
        now: float,
        parent: int = NO_PARENT,
        **args: Any,
    ) -> int:
        """Open a span; returns its handle (0 when over ``max_spans``)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return NO_PARENT
        span = SpanRecord(next(self._ids), parent, name, track, now)
        if args:
            span.args.update(args)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end(self, span_id: int, now: float, **args: Any) -> None:
        """Close a span.  Unknown/zero handles are ignored (the span may
        have been dropped by the overflow cap)."""
        span = self._by_id.get(span_id)
        if span is None or span.end != OPEN:
            return
        span.end = now
        if args:
            span.args.update(args)

    def instant(self, name: str, track: str, now: float, **args: Any) -> None:
        if len(self.instants) >= self.max_spans:
            self.dropped += 1
            return
        self.instants.append(InstantRecord(name, track, now, args))

    def close_open_spans(self, now: float) -> int:
        """Close every still-open span at ``now`` (end-of-run flush for
        queries abandoned mid-flight).  Returns how many were closed."""
        closed = 0
        for span in self.spans:
            if span.end == OPEN:
                span.end = now
                span.args.setdefault("flushed", True)
                closed += 1
        return closed

    # ------------------------------------------------------------------
    # tree queries
    # ------------------------------------------------------------------
    def get(self, span_id: int) -> Optional[SpanRecord]:
        return self._by_id.get(span_id)

    def roots(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == NO_PARENT]

    def children(self) -> Dict[int, List[SpanRecord]]:
        """Parent id -> its child spans in start order: the index a tree
        walk needs, built in one pass over every span."""
        kids: Dict[int, List[SpanRecord]] = {}
        for span in self.spans:
            kids.setdefault(span.parent_id, []).append(span)
        return kids

    def tree_tracks(self, root_id: int, kids: Dict[int, List[SpanRecord]]) -> List[str]:
        """Distinct tracks touched by the tree under ``root_id``, in
        first-visit (depth-first) order; ``kids`` is :meth:`children`,
        built once for however many trees are walked."""
        tracks: List[str] = []
        stack = [root_id]
        while stack:
            node_id = stack.pop()
            node = self._by_id.get(node_id)
            if node is not None and node.track not in tracks:
                tracks.append(node.track)
            for child in reversed(kids.get(node_id, [])):
                stack.append(child.span_id)
        return tracks
