"""End-to-end observability: determinism guard, lint gate, full scenarios.

The two load-bearing guarantees of ``repro.obs``:

1. enabling it never perturbs the simulation -- the selfcheck
   event-trace digest must be byte-identical with obs on or off;
2. what it reports is true -- heavy-hitter estimates must match exact
   per-client counts computed from the delivered-message trace.
"""

import dataclasses
import json
import os
import sys

import pytest

from repro.dcc.monitor import AnomalyKind
from repro.experiments import fig8_resilience, selfcheck
from tests.reference_trace import MessageTrace
import repro.obs as obs_module
from repro.obs import ObsConfig
from repro.obs.export import chrome_trace, find_full_query_root, metrics_jsonl, validate_chrome_trace
from tests.span_oracle import validate_span_tree

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


# ----------------------------------------------------------------------
# determinism guard (satellite: byte-identical digest with obs enabled)
# ----------------------------------------------------------------------

def test_obs_does_not_perturb_event_trace_digest():
    baseline = selfcheck.trace_digest(seed=3, scale=0.02)
    observed = selfcheck.trace_digest(seed=3, scale=0.02, obs=ObsConfig())
    assert observed == baseline


def test_obs_digest_stable_across_obs_configs(monkeypatch):
    a = selfcheck.trace_digest(seed=5, scale=0.02, obs=ObsConfig(sample_interval=0.1))
    monkeypatch.setattr(obs_module, "TRACE_SPANS", False)
    monkeypatch.setattr(obs_module, "HEAVY_HITTER_K", 4)
    b = selfcheck.trace_digest(seed=5, scale=0.02, obs=ObsConfig())
    assert a == b


# ----------------------------------------------------------------------
# lint gate (satellite: reprolint passes over src/repro/obs/)
# ----------------------------------------------------------------------

def test_reprolint_clean_over_obs_subsystem():
    from tools import reprolint

    findings = reprolint.lint_paths([os.path.join(REPO_ROOT, "src", "repro", "obs")])
    assert findings == [], [f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings]


# ----------------------------------------------------------------------
# an observed Figure 8 cell: FF amplification against a DCC resolver
# ----------------------------------------------------------------------

def observed_cell():
    """Figure 8(c)'s DCC cell at scale 0.1, observed as ``repro fig8 --obs`` observes it."""
    return fig8_resilience.build_scenario("amplification", True, scale=0.1, seed=7, obs=ObsConfig(sample_interval=0.1))


@pytest.fixture(scope="module")
def observed_run():
    scenario = observed_cell()
    trace = MessageTrace(scenario.net, max_records=1_000_000)
    scenario.run()
    return scenario, trace


def test_span_trees_are_well_formed(observed_run):
    scenario, _ = observed_run
    assert validate_span_tree(scenario.obs.tracer) == []


def test_full_query_span_crosses_all_layers(observed_run):
    scenario, _ = observed_run
    tracer = scenario.obs.tracer
    root_id = find_full_query_root(tracer)
    assert root_id is not None
    kinds = {track.split(":", 1)[0] for track in tracer.tree_tracks(root_id, tracer.children())}
    assert {"client", "resolver", "mopifq", "auth"} <= kinds


def test_exported_trace_passes_schema_gate(observed_run):
    scenario, _ = observed_run
    doc = chrome_trace(scenario.obs.tracer)
    assert validate_chrome_trace(doc) == []


def test_heavy_hitters_match_exact_per_client_counts(observed_run):
    """Top-10 Space-Saving talkers == exact ingress counts per client.

    Ground truth is the delivered-message trace: every query delivered
    to the resolver is exactly one ``client_query`` feed.
    """
    scenario, trace = observed_run
    resolver_addrs = {resolver.address for resolver in scenario.resolvers}
    exact = {}
    for record in trace.records:
        if not record.is_response and record.dst in resolver_addrs:
            exact[record.src] = exact.get(record.src, 0) + 1
    assert exact, "scenario delivered no client queries"

    sketch = scenario.obs.hh_queries
    reported = {h.key: h.count for h in sketch.top(10)}
    expected_top = sorted(exact.items(), key=lambda item: (-item[1], item[0]))[:10]
    assert reported == dict(expected_top)
    # four clients, k=32: the sketch never evicted, so errors are zero
    assert all(h.error == 0 for h in sketch.top(10))
    # Table 2's heavy client (600 QPS) is the single heaviest talker
    assert sketch.top(1)[0].key == scenario.clients["heavy"].address


def test_observed_run_convicts_the_attacker(observed_run):
    """The cell's monitor runs on the scaled timeline: the attacker is
    convicted inside the run, and the export shows the conviction."""
    scenario, _ = observed_run
    counters = {
        row["name"]: row["value"]
        for row in map(json.loads, metrics_jsonl(scenario.obs.metrics).splitlines())
        if row["kind"] == "counter"
    }
    assert counters.get("monitor.convictions", 0) >= 1
    attacker = scenario.clients["attacker"].address
    convicts = [
        event for event in chrome_trace(scenario.obs.tracer)["traceEvents"]
        if event["ph"] == "i" and event["name"] == "dcc.convict"
    ]
    assert convicts and convicts[0]["args"]["client"] == attacker


def test_monitor_top_talkers_sees_the_attacker(observed_run):
    scenario, _ = observed_run
    (shim,) = scenario.shims
    talkers = shim.monitor.top_talkers(3, scenario.sim.now)
    assert talkers
    assert talkers == sorted(talkers, key=lambda pair: (-pair[1], pair[0]))


def test_metrics_account_for_scenario_traffic(observed_run):
    scenario, _ = observed_run
    counters = scenario.obs.metrics.counters()
    assert counters["resolver.requests_received"] == sum(
        resolver.stats.requests_received for resolver in scenario.resolvers
    )
    assert counters["auth.queries_received"] > 0
    assert counters["dcc.queries_scheduled"] > 0
    assert scenario.obs.metrics.samples, "grid sampler never fired"


def test_counters_are_the_watched_stats_fields(observed_run):
    """Each counter is ``<prefix>.<field>`` of the stats blocks, summed
    over the blocks of one prefix: one count per event, no second copy."""
    scenario, _ = observed_run
    blocks = {
        "auth": [a.stats for a in [scenario.root, scenario.attacker_ans, *scenario.target_ans]],
        "resolver": [r.stats for r in scenario.resolvers],
        "overload": [r.overload.stats for r in scenario.resolvers if r.overload is not None],
        "dcc": [s.stats for s in scenario.shims],
        "monitor": [s.monitor.stats for s in scenario.shims],
        "mopifq": [s.scheduler.stats for s in scenario.shims],
        "police": [s.engine.stats for s in scenario.shims],
    }
    expected = {}
    for prefix, stats_blocks in blocks.items():
        for stats in stats_blocks:
            for item in dataclasses.fields(stats):
                value = getattr(stats, item.name)
                if type(value) is int and value:
                    name = f"{prefix}.{item.name}"
                    expected[name] = expected.get(name, 0) + value
    counters = scenario.obs.metrics.counters()
    assert counters == expected
    assert list(counters) == sorted(expected)
    gauges = scenario.obs.metrics.gauges()
    final = {s.name: s.value for s in scenario.obs.metrics.samples if s.name not in gauges}
    assert final == counters, "the last grid sample of each counter is its final value"


def test_counters_count_a_conviction_once():
    """The monitor counts a conviction; the shim acting on it and the
    policy it installs add no second conviction count."""
    scenario = observed_cell()
    (shim,) = scenario.shims
    attacker = scenario.clients["attacker"].address
    threshold = shim.monitor.config.alarm_threshold
    event = shim.monitor.external_alarm(attacker, AnomalyKind.AMPLIFICATION, 0.0, weight=threshold)
    assert event is not None and event.convicted
    shim._act_on_event(event, 0.0)  # what the window tick does with a convicting event
    assert scenario.obs.metrics.counters() == {
        "monitor.alarms_raised": threshold,
        "monitor.convictions": 1,
        "monitor.external_alarms": 1,
        "police.policies_activated": 1,
    }


def test_fig8_obs_cli_roundtrip(tmp_path, capsys, monkeypatch):
    """``repro fig8 --obs DIR`` prints the figure it prints without it, and
    exports every cell; its heavy-hitter lines are the sketches' counters."""
    from repro import cli

    rc_plain = cli.main(["fig8", "--scale", "0.05"])
    plain = capsys.readouterr()
    out_dir = tmp_path / "obs"
    sketches = {}
    build = fig8_resilience.build_scenario

    def keep(scenario, use_dcc, scale, seed, obs):
        cell = build(scenario, use_dcc, scale, seed, obs)
        sketches[f"{scenario}-{'dcc' if use_dcc else 'vanilla'}"] = {
            name: getattr(cell.obs, name) for name in ("hh_queries", "hh_nxdomain", "hh_bytes")}
        return cell

    monkeypatch.setattr(fig8_resilience, "build_scenario", keep)
    rc_observed = cli.main(["fig8", "--scale", "0.05", "--obs", str(out_dir)])
    observed = capsys.readouterr()
    assert rc_observed == rc_plain == 0
    assert observed.out == plain.out
    assert observed.err == plain.err, "an export problem"
    assert len(sketches) == 6
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(
        f"{stem}.{suffix}" for stem in sketches for suffix in ("metrics.jsonl", "trace.json"))
    for stem, cell_sketches in sketches.items():
        doc = json.loads((out_dir / f"{stem}.trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans_dropped"] == 0
        tracks = {event["args"]["name"] for event in doc["traceEvents"] if event["name"] == "thread_name"}
        # only a DCC resolver has a MOPI-FQ layer; write_obs already failed the run if no query crossed it
        assert any(track.startswith("mopifq:") for track in tracks) == stem.endswith("-dcc")
        rows = [json.loads(line) for line in (out_dir / f"{stem}.metrics.jsonl").read_text().splitlines()]
        for name, sketch in cell_sketches.items():
            lines = [(row["key"], row["count"], row["error"]) for row in rows
                     if row["kind"] == "heavy_hitter" and row["name"] == name]
            assert lines == [(h.key, h.count, h.error) for h in sketch.top(sketch.k)]
            assert lines or name == "hh_nxdomain"


def test_counters_keep_counting_across_a_dcc_host_crash():
    """A crash rebuilds the shim's monitor, scheduler and policy engine:
    their new blocks are watched too, and the old ones keep their counts."""
    scenario = observed_cell()
    (shim,) = scenario.shims
    before = shim.monitor.stats
    before.alarms_raised = 2
    scenario.resolvers[0].crash()
    assert shim.monitor.stats is not before
    shim.monitor.stats.alarms_raised = 3
    shim.scheduler.stats.enqueued = 4
    counters = scenario.obs.metrics.counters()
    assert counters["monitor.alarms_raised"] == 5
    assert counters["mopifq.enqueued"] == 4
