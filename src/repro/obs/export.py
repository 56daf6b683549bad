"""Exporters: metrics -> JSONL, spans -> Chrome trace-event JSON.

Two on-disk formats:

- **JSONL metrics** (:func:`metrics_jsonl`): one JSON object per line --
  final counter/gauge values, histogram summaries, the heavy hitters of
  each Space-Saving sketch, then the periodic time-series samples.  Line
  order is deterministic (kind, then name, then rank or time) so exports
  diff cleanly across runs.
- **Chrome trace-event JSON** (:func:`chrome_trace`): the ``traceEvents``
  format that Perfetto and chrome://tracing load directly.  Spans become
  complete ``"X"`` events, instants become ``"i"`` events; each
  simulated entity is one thread (track) of a single process.
  Timestamps are virtual microseconds, nudged by 1 ns per collision so
  every track's timeline is strictly increasing -- some trace tooling
  (and our own validator) rejects ties.

:func:`validate_chrome_trace` is the schema gate CI runs on exported
traces: structural checks, strict per-track ``ts`` monotonicity, and
``B``/``E`` pairing (our exporter only emits ``X``/``i``/``M``, but the
validator accepts the full begin/end vocabulary so it can vet traces
from other producers too).

Everything here returns strings or plain data; printing and file I/O
belong to the drivers (reprolint R5; ``repro fig8 --obs DIR`` writes
both files for every cell).
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import SpaceSaving
from repro.obs.spans import NO_PARENT, OPEN, Tracer

#: one trace process holds all simulation tracks
TRACE_PID = 1

#: microseconds; chrome trace ts must strictly increase per track
_US = 1e6
_TS_NUDGE = 0.001
_by_ts = itemgetter("ts")


# ----------------------------------------------------------------------
# metrics -> JSONL
# ----------------------------------------------------------------------
def metrics_jsonl(metrics: MetricsRegistry, sketches: Optional[Dict[str, SpaceSaving]] = None) -> str:
    """Serialize a registry, and every counter each of ``sketches`` (name ->
    sketch) monitors, heaviest first, as JSON Lines (one object per line)."""
    lines: List[str] = []
    for name, value in metrics.counters().items():
        lines.append(_dumps({"kind": "counter", "name": name, "value": value}))
    for name, value in metrics.gauges().items():
        lines.append(_dumps({"kind": "gauge", "name": name, "value": value}))
    for name, histogram in metrics.histograms().items():
        lines.append(
            _dumps(
                {
                    "kind": "histogram",
                    "name": name,
                    "count": histogram.count,
                    "sum": histogram.sum,
                    "mean": histogram.mean(),
                    "p50": histogram.quantile(0.50),
                    "p99": histogram.quantile(0.99),
                    "bounds": list(histogram.bounds),
                    "buckets": list(histogram.buckets),
                }
            )
        )
    for name, sketch in (sketches or {}).items():
        for hitter in sketch.top(sketch.k):
            lines.append(
                _dumps(
                    {
                        "kind": "heavy_hitter",
                        "name": name,
                        "key": hitter.key,
                        "count": hitter.count,
                        "error": hitter.error,
                    }
                )
            )
    for sample in metrics.samples:
        lines.append(
            _dumps(
                {
                    "kind": "sample",
                    "time": sample.time,
                    "name": sample.name,
                    "value": sample.value,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def canonical_json(doc: Any) -> str:
    """Byte-stable JSON for determinism gates: sorted keys, no
    whitespace drift, newline-terminated.

    Two runs that produce equal data structures produce *identical
    files* through this function -- the property the chaos CLI's
    ``--check-against`` comparison (and any future digest gate) relies
    on.  Inputs must be plain JSON data (dict/list/str/num/bool/None);
    non-finite floats are rejected rather than serialized as the
    non-standard ``NaN``/``Infinity`` tokens.
    """
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# spans -> Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Build a Chrome trace-event document from the recorded spans.

    Tracks map to thread ids in first-appearance order; thread-name
    metadata events label them.  Open spans are skipped (callers should
    :meth:`~repro.obs.spans.Tracer.close_open_spans` first).
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
        return tid

    for span in tracer.spans:
        if span.end == OPEN:
            continue
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id != NO_PARENT:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(span.end - span.start, 0.0) * _US,
                "pid": TRACE_PID,
                "tid": tid_for(span.track),
                "cat": span.name.split(".")[0],
                "args": args,
            }
        )
    for mark in tracer.instants:
        events.append(
            {
                "name": mark.name,
                "ph": "i",
                "ts": mark.time * _US,
                "pid": TRACE_PID,
                "tid": tid_for(mark.track),
                "s": "t",
                "cat": mark.name.split(".")[0],
                "args": dict(mark.args),
            }
        )

    events.sort(key=_by_ts)  # stable: equal times keep record order, spans before instants
    last_ts_per_tid: Dict[int, float] = {}
    for event in events:
        tid = event["tid"]
        ts = event["ts"]
        previous = last_ts_per_tid.get(tid)
        if previous is not None and ts <= previous:
            ts = previous + _TS_NUDGE
            event["ts"] = ts
        last_ts_per_tid[tid] = ts

    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": "repro-sim"},
        }
    ]
    for track, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "clock": "virtual-us", "spans_dropped": tracer.dropped},
    }


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema problems in a trace-event document; empty when valid.

    Checks: ``traceEvents`` list of objects with required fields per
    phase; strictly increasing ``ts`` on every (pid, tid) track; every
    ``B`` matched by a later ``E`` on the same track (complete ``X``
    events carry their own duration and need no pairing).
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts: Dict[Tuple[int, int], float] = {}
    begin_depth: Dict[Tuple[int, int], int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{index}] is not an object")
            continue
        phase = event.get("ph")
        if phase is None or "name" not in event or "pid" not in event:
            problems.append(f"event[{index}] missing ph/name/pid")
            continue
        if phase == "M":
            continue
        if "ts" not in event or "tid" not in event:
            problems.append(f"event[{index}] ({phase}) missing ts/tid")
            continue
        key = (event["pid"], event["tid"])
        ts = float(event["ts"])
        previous = last_ts.get(key)
        if previous is not None and ts <= previous:
            problems.append(
                f"event[{index}] ts {ts} not strictly increasing on track "
                f"pid={key[0]} tid={key[1]} (previous {previous})"
            )
        last_ts[key] = ts
        if phase == "X":
            if "dur" not in event or float(event["dur"]) < 0:
                problems.append(f"event[{index}] X missing non-negative dur")
        elif phase == "B":
            begin_depth[key] = begin_depth.get(key, 0) + 1
        elif phase == "E":
            depth = begin_depth.get(key, 0)
            if depth <= 0:
                problems.append(f"event[{index}] E without matching B on track {key}")
            else:
                begin_depth[key] = depth - 1
        elif phase not in ("i", "I", "C", "s", "t", "f"):
            problems.append(f"event[{index}] unknown phase {phase!r}")
    for key, depth in sorted(begin_depth.items()):
        if depth:
            problems.append(f"{depth} unmatched B event(s) on track pid={key[0]} tid={key[1]}")
    return problems


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def find_full_query_root(
    tracer: Tracer,
    required_prefixes: Tuple[str, ...] = ("client", "resolver", "mopifq", "auth"),
) -> Optional[int]:
    """The first root span whose tree touches every required track kind
    (track names are ``kind:address``) -- the acceptance probe for "one
    query's full life crosses client -> resolver -> MOPI-FQ -> auth"."""
    kids = tracer.children()
    for root in tracer.roots():
        kinds = {track.split(":", 1)[0] for track in tracer.tree_tracks(root.span_id, kids)}
        if kinds.issuperset(required_prefixes):
            return root.span_id
    return None

