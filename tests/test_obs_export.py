"""Exporters: JSONL metrics and heavy hitters, Chrome trace JSON + validator, the full-tree probe."""

import json
import time
from dataclasses import dataclass

from repro.obs.export import (
    chrome_trace,
    find_full_query_root,
    metrics_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import SpaceSaving
from repro.obs.spans import Tracer


def make_tracer():
    tracer = Tracer()
    root = tracer.begin("client.request", "client:10.1.0.1", 0.0)
    task = tracer.begin("resolve", "resolver:10.0.1.1", 0.001, parent=root)
    up = tracer.begin("upstream", "resolver:10.0.1.1", 0.002, parent=task)
    wait = tracer.begin("mopifq.wait", "mopifq:10.0.1.1", 0.002, parent=up)
    serve = tracer.begin("auth.serve", "auth:10.0.0.1", 0.003, parent=up)
    tracer.instant("upstream.retransmit", "resolver:10.0.1.1", 0.0025)
    tracer.end(serve, 0.0031, outcome="NOERROR")
    tracer.end(wait, 0.003, outcome="sent")
    tracer.end(up, 0.004, outcome="answered")
    tracer.end(task, 0.005, rcode="NOERROR")
    tracer.end(root, 0.006, outcome="answered")
    return tracer, root


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

@dataclass
class Stats:
    count: int = 0


def test_metrics_jsonl_parses_and_orders():
    reg = MetricsRegistry(sample_interval=1.0)
    reg.watch("b", Stats(count=3))
    reg.watch("a", Stats(count=1))
    reg.gauge("depth").set(7)
    reg.histogram("rtt").observe(0.25)
    reg.on_advance(1.5)
    text = metrics_jsonl(reg)
    assert text.endswith("\n")
    objects = [json.loads(line) for line in text.splitlines()]
    kinds = [o["kind"] for o in objects]
    # counters, then gauges, then histograms, then samples
    assert kinds == sorted(kinds, key=["counter", "gauge", "histogram", "sample"].index)
    counters = [o for o in objects if o["kind"] == "counter"]
    assert [o["name"] for o in counters] == ["a.count", "b.count"]
    hist = next(o for o in objects if o["kind"] == "histogram")
    assert hist["count"] == 1
    assert len(hist["buckets"]) == len(hist["bounds"]) + 1
    samples = [o for o in objects if o["kind"] == "sample"]
    assert {o["time"] for o in samples} == {0.0, 1.0}


def test_metrics_jsonl_empty_registry():
    assert metrics_jsonl(MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

def test_chrome_trace_validates_and_labels_tracks():
    tracer, _ = make_tracer()
    doc = chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    thread_names = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names == {
        "client:10.1.0.1",
        "resolver:10.0.1.1",
        "mopifq:10.0.1.1",
        "auth:10.0.0.1",
    }
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 5
    assert all(e["dur"] >= 0 for e in xs)
    assert len([e for e in events if e["ph"] == "i"]) == 1


def test_chrome_trace_nudges_equal_timestamps_per_track():
    tracer = Tracer()
    for _ in range(3):
        span = tracer.begin("tick", "t:1", 1.0)
        tracer.end(span, 1.0)
    doc = chrome_trace(tracer)
    assert validate_chrome_trace(doc) == []
    ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"]
    assert ts == sorted(ts)
    assert len(set(ts)) == 3  # strictly increasing, not just sorted


def test_chrome_trace_skips_open_spans():
    tracer = Tracer()
    tracer.begin("open", "t:1", 0.0)
    doc = chrome_trace(tracer)
    assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []


def test_chrome_trace_links_parents_in_args():
    tracer, root = make_tracer()
    doc = chrome_trace(tracer)
    xs = {e["args"]["span_id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "parent_id" not in xs[root]["args"]
    task = next(e for e in xs.values() if e["name"] == "resolve")
    assert task["args"]["parent_id"] == root


def test_validator_rejects_broken_documents():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    assert validate_chrome_trace({"traceEvents": [42]}) == ["event[0] is not an object"]
    missing = validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    assert any("missing ph/name/pid" in p for p in missing)
    regressing = validate_chrome_trace(
        {
            "traceEvents": [
                {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5.0},
                {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 5.0},
            ]
        }
    )
    assert any("not strictly increasing" in p for p in regressing)
    unmatched = validate_chrome_trace(
        {"traceEvents": [{"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 1.0}]}
    )
    assert any("unmatched B" in p for p in unmatched)
    bare_end = validate_chrome_trace(
        {"traceEvents": [{"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 1.0}]}
    )
    assert any("E without matching B" in p for p in bare_end)


def test_validator_accepts_paired_begin_end():
    doc = {
        "traceEvents": [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 1.0},
            {"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 2.0},
        ]
    }
    assert validate_chrome_trace(doc) == []


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------

def test_find_full_query_root():
    tracer, root = make_tracer()
    assert find_full_query_root(tracer) == root
    # a tree missing the mopifq layer does not qualify
    bare = Tracer()
    r = bare.begin("client.request", "client:c", 0.0)
    u = bare.begin("upstream", "resolver:r", 0.1, parent=r)
    a = bare.begin("auth.serve", "auth:a", 0.2, parent=u)
    for span, t in ((a, 0.3), (u, 0.4), (r, 0.5)):
        bare.end(span, t)
    assert find_full_query_root(bare) is None


def test_find_full_query_root_walks_each_span_once():
    """A vanilla-sized trace with no qualifying root: every tree is
    walked over one children index, so the probe stays linear in spans."""
    tracer = Tracer()
    for i in range(10_000):
        t = 0.001 * i
        r = tracer.begin("client.request", f"client:c{i % 50}", t)
        u = tracer.begin("upstream", "resolver:r", t, parent=r)
        a = tracer.begin("auth.serve", "auth:a", t, parent=u)
        for span in (a, u, r):
            tracer.end(span, t + 0.0005)
    assert len(tracer.spans) >= 30_000
    started = time.perf_counter()
    assert find_full_query_root(tracer) is None
    assert time.perf_counter() - started < 1.0


def test_heavy_hitter_rows():
    """Every counter of each sketch, heaviest first, after the histograms and before the samples."""
    reg = MetricsRegistry(sample_interval=1.0)
    reg.histogram("rtt").observe(0.25)
    reg.watch("a", Stats(count=1))
    reg.on_advance(1.5)
    queries, nxdomain = SpaceSaving(2), SpaceSaving(4)
    for key in ["a"] * 3 + ["b", "c"]:
        queries.offer(key)
    nxdomain.offer("b")
    objects = [json.loads(line) for line in metrics_jsonl(reg, {"q": queries, "nx": nxdomain}).splitlines()]
    kinds = [o["kind"] for o in objects]
    assert kinds == sorted(kinds, key=["counter", "histogram", "heavy_hitter", "sample"].index)
    assert [o for o in objects if o["kind"] == "heavy_hitter"] == [
        {"kind": "heavy_hitter", "name": "q", "key": "a", "count": 3.0, "error": 0.0},
        {"kind": "heavy_hitter", "name": "q", "key": "c", "count": 2.0, "error": 1.0},
        {"kind": "heavy_hitter", "name": "nx", "key": "b", "count": 1.0, "error": 0.0},
    ]
