"""Tracer span trees: well-formedness, handles, overflow behaviour."""

from dataclasses import dataclass

import repro.obs as obs_module
from repro.obs import NULL_OBS, Observability, ObsConfig
from repro.obs.spans import NO_PARENT, OPEN, Tracer

from tests.span_oracle import validate_span_tree


def build_query_tree(tracer):
    """client -> resolve -> (upstream -> wait) x2, all closed."""
    root = tracer.begin("client.request", "client:10.1.0.1", 0.0, qname="a.example.")
    task = tracer.begin("resolve", "resolver:10.0.1.1", 0.1, parent=root)
    up1 = tracer.begin("upstream", "resolver:10.0.1.1", 0.2, parent=task)
    wait1 = tracer.begin("mopifq.wait", "mopifq:10.0.1.1", 0.2, parent=up1)
    tracer.end(wait1, 0.3, outcome="sent")
    tracer.end(up1, 0.4, outcome="answered")
    up2 = tracer.begin("upstream", "resolver:10.0.1.1", 0.5, parent=task)
    wait2 = tracer.begin("mopifq.wait", "mopifq:10.0.1.1", 0.5, parent=up2)
    tracer.end(wait2, 0.6, outcome="sent")
    tracer.end(up2, 0.7, outcome="answered")
    tracer.end(task, 0.8, rcode="NOERROR")
    tracer.end(root, 0.9, outcome="answered")
    return root


def test_well_formed_tree_validates_clean():
    tracer = Tracer()
    build_query_tree(tracer)
    assert validate_span_tree(tracer) == []


def test_tree_queries():
    tracer = Tracer()
    root = build_query_tree(tracer)
    assert [s.span_id for s in tracer.roots()] == [root]
    assert [s.name for s in tracer.spans if s.parent_id == root] == ["resolve"]
    assert tracer.tree_tracks(root, tracer.children()) == [
        "client:10.1.0.1",
        "resolver:10.0.1.1",
        "mopifq:10.0.1.1",
    ]


def test_open_span_is_flagged():
    tracer = Tracer()
    tracer.begin("leak", "t:1", 0.0)
    problems = validate_span_tree(tracer)
    assert len(problems) == 1
    assert "never closed" in problems[0]


def test_end_before_start_is_flagged():
    tracer = Tracer()
    span = tracer.begin("x", "t:1", 5.0)
    tracer.end(span, 1.0)
    assert any("ends before it starts" in p for p in validate_span_tree(tracer))


def test_child_starting_before_parent_is_flagged():
    tracer = Tracer()
    parent = tracer.begin("p", "t:1", 2.0)
    child = tracer.begin("c", "t:1", 1.0, parent=parent)
    tracer.end(child, 3.0)
    tracer.end(parent, 3.0)
    assert any("starts before its parent" in p for p in validate_span_tree(tracer))


def test_close_open_spans_flushes_and_marks():
    tracer = Tracer()
    tracer.begin("a", "t:1", 0.0)
    done = tracer.begin("b", "t:1", 0.0)
    tracer.end(done, 1.0)
    assert tracer.close_open_spans(5.0) == 1
    assert validate_span_tree(tracer) == []
    flushed = tracer.get(1)
    assert flushed.end == 5.0
    assert flushed.args.get("flushed") is True
    # the already-closed span keeps its own end
    assert tracer.get(done).end == 1.0


def test_double_end_keeps_first_close():
    tracer = Tracer()
    span = tracer.begin("x", "t:1", 0.0)
    tracer.end(span, 1.0, outcome="first")
    tracer.end(span, 2.0, outcome="second")
    record = tracer.get(span)
    assert record.end == 1.0
    assert record.args["outcome"] == "first"


def test_zero_and_unknown_handles_are_ignored():
    tracer = Tracer()
    tracer.end(NO_PARENT, 1.0)
    tracer.end(999, 1.0)
    assert tracer.spans == []


def test_max_spans_overflow_drops_and_counts():
    tracer = Tracer(max_spans=2)
    a = tracer.begin("a", "t:1", 0.0)
    b = tracer.begin("b", "t:1", 0.0)
    c = tracer.begin("c", "t:1", 0.0)
    assert (a, b) == (1, 2)
    assert c == NO_PARENT
    assert tracer.dropped == 1
    tracer.instant("i1", "t:1", 0.0)
    tracer.instant("i2", "t:1", 0.0)
    tracer.instant("i3", "t:1", 0.0)
    assert len(tracer.instants) == 2
    assert tracer.dropped == 2


def test_duration_of_open_span_is_zero():
    tracer = Tracer()
    span = tracer.begin("x", "t:1", 3.0)
    record = tracer.get(span)
    assert record.end == OPEN
    assert record.duration == 0.0
    tracer.end(span, 5.5)
    assert record.duration == 2.5


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------

def test_null_obs_is_inert():
    assert NULL_OBS.enabled is False
    assert NULL_OBS.begin("x", "t:1", 0.0) == NO_PARENT
    assert NULL_OBS.query_span(123) == NO_PARENT
    NULL_OBS.end(1, 0.0)
    NULL_OBS.set_gauge("g", 1.0)
    assert not hasattr(NULL_OBS, "inc")  # counters are watched stats blocks
    NULL_OBS.observe("h", 1.0)
    NULL_OBS.client_query("10.1.0.1", 64)
    NULL_OBS.note_query_span(1, 2)
    assert NULL_OBS.query_span(1) == NO_PARENT


def test_facade_span_linkage_lifecycle():
    obs = Observability()
    span = obs.begin("upstream", "resolver:r", 0.0)
    obs.note_query_span(41, span)
    assert obs.query_span(41) == span
    obs.forget_query_span(41)
    assert obs.query_span(41) == NO_PARENT
    obs.forget_query_span(41)  # idempotent
    obs.note_query_span(42, NO_PARENT)  # zero handles are never stored
    assert obs.query_span(42) == NO_PARENT


def test_facade_trace_spans_off_disables_tracer_only(monkeypatch):
    monkeypatch.setattr(obs_module, "TRACE_SPANS", False)
    obs = Observability(ObsConfig())
    assert obs.begin("x", "t:1", 0.0) == NO_PARENT
    obs.instant("i", "t:1", 0.0)
    assert obs.tracer.spans == []
    assert obs.tracer.instants == []
    obs.metrics.watch("still", Stats(counted=1))
    assert obs.metrics.counters()["still.counted"] == 1.0


@dataclass
class Stats:
    counted: int = 0


def test_facade_finish_closes_and_samples():
    obs = Observability(ObsConfig(sample_interval=1.0))
    obs.metrics.watch("c", Stats(counted=1))
    obs.begin("x", "t:1", 0.0)
    obs.finish(2.0)
    assert validate_span_tree(obs.tracer) == []
    assert [s.time for s in obs.metrics.samples] == [0.0, 1.0, 2.0]
