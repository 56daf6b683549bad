"""End-to-end observability: determinism guard, lint gate, full scenarios.

The two load-bearing guarantees of ``repro.obs``:

1. enabling it never perturbs the simulation -- the selfcheck
   event-trace digest must be byte-identical with obs on or off;
2. what it reports is true -- heavy-hitter estimates must match exact
   per-client counts computed from the delivered-message trace.
"""

import os
import sys

import pytest

from repro.experiments import obs_demo, selfcheck
from tests.reference_trace import MessageTrace
import repro.obs as obs_module
from repro.obs import ObsConfig
from repro.obs.export import chrome_trace, find_full_query_root, validate_chrome_trace
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
# the observed fig4 attack scenario
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def observed_run():
    scenario = obs_demo.build_scenario(scale=0.1, seed=7)
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
    kinds = {track.split(":", 1)[0] for track in tracer.tree_tracks(root_id)}
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
    # the attacker is the single heaviest talker
    attacker = scenario.clients["attacker"].address
    assert sketch.top(1)[0].key == attacker


def test_monitor_top_talkers_sees_the_attacker(observed_run):
    scenario, _ = observed_run
    (shim,) = scenario.shims
    talkers = shim.monitor.top_talkers(3, scenario.sim.now)
    assert talkers
    assert talkers == sorted(talkers, key=lambda pair: (-pair[1], pair[0]))


def test_metrics_account_for_scenario_traffic(observed_run):
    scenario, _ = observed_run
    counters = scenario.obs.metrics.counters()
    assert counters["resolver.requests"] == sum(
        resolver.stats.requests_received for resolver in scenario.resolvers
    )
    assert counters["auth.queries"] > 0
    assert counters["dcc.queries_scheduled"] > 0
    assert scenario.obs.metrics.samples, "grid sampler never fired"


def test_obs_demo_cli_roundtrip(tmp_path, capsys):
    from repro import cli

    out_dir = tmp_path / "obs"
    rc = cli.main([
        "obs", "--scale", "0.05", "--seed", "11", "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert (out_dir / "metrics.jsonl").exists()
    assert (out_dir / "trace.json").exists()
    assert "trace passed schema validation" in out
    assert out.startswith("# experiment=obs repro=")
