"""``repro obs``: run one observed scenario and export its telemetry.

Runs a small Figure 4 style attack scenario (FF amplification against a
DCC-enabled resolver) with the :mod:`repro.obs` subsystem switched on,
then:

- writes ``metrics.jsonl`` (counters, histograms, time series) and
  ``trace.json`` (Chrome trace-event JSON, loadable in Perfetto or
  chrome://tracing) to ``--out-dir``;
- validates the exported trace against the schema gate
  (:func:`repro.obs.export.validate_chrome_trace`);
- locates one query whose span tree crosses
  client -> resolver -> MOPI-FQ -> authoritative and prints it;
- prints the metrics/heavy-hitter digest
  (:func:`repro.analysis.report.render_obs_summary`).

Exit status is non-zero when the trace fails validation or no full
cross-layer query tree exists -- the same checks CI runs.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro.analysis.provenance import provenance_header
from repro.analysis.report import render_obs_summary
from repro.experiments.common import AttackScenario, ScenarioConfig
from repro.experiments.fig8_resilience import paper_monitor_config, paper_policy_templates
from repro.obs import ObsConfig
from repro.obs.export import (
    chrome_trace,
    find_full_query_root,
    metrics_jsonl,
    render_span_tree,
    validate_chrome_trace,
)
from repro.workloads.schedule import ClientSpec


def build_scenario(scale: float = 0.15, seed: int = 42) -> AttackScenario:
    """The fig4-style observed run: 3 benign WC clients + 1 FF attacker
    against a DCC-enabled resolver with two redundant target servers.
    DCC timers scale with the timeline and the attacker sends Figure
    8(c)'s 50 QPS, so each scaled monitor window alarms and the run
    convicts it."""
    config = ScenarioConfig(
        seed=seed,
        duration=50.0 * scale,
        channel_capacity=100.0,
        target_ans_count=2,
        use_dcc=True,
        monitor=paper_monitor_config(time_scale=scale),
        policy_templates=paper_policy_templates(time_scale=scale),
        obs=ObsConfig(sample_interval=max(0.25, scale)),
    )
    scenario = AttackScenario(config)
    scenario.add_clients(
        [
            ClientSpec("benign1", 5.0 * scale, 35.0 * scale, 3.0, "WC"),
            ClientSpec("benign2", 5.0 * scale, 35.0 * scale, 3.0, "WC"),
            ClientSpec("benign3", 5.0 * scale, 35.0 * scale, 3.0, "WC"),
            ClientSpec("attacker", 0.0, 50.0 * scale, 50.0, "FF", is_attacker=True),
        ]
    )
    return scenario


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="run one observed fig4-style scenario and export "
        "metrics.jsonl + a Perfetto-loadable Chrome trace",
    )
    parser.add_argument("--scale", type=float, default=0.15,
                        help="timeline compression (1.0 = 50-second runs)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", type=str, default="results/obs",
                        help="directory for metrics.jsonl and trace.json")
    parser.add_argument("--top", type=int, default=10,
                        help="heavy-hitter table depth")
    args = parser.parse_args(argv)
    scale, seed, out_dir, top = args.scale, args.seed, args.out_dir, args.top
    scenario = build_scenario(scale=scale, seed=seed)
    print(provenance_header("obs", seed=seed, scale=scale, config=scenario.config))
    scenario.run()
    obs = scenario.obs
    assert obs is not None

    trace_doc = chrome_trace(obs.tracer)
    problems = validate_chrome_trace(trace_doc)
    metrics_text = metrics_jsonl(obs.metrics)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        trace_path = os.path.join(out_dir, "trace.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(metrics_text)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh, separators=(",", ":"))
        print(f"wrote {metrics_path} ({len(metrics_text.splitlines())} lines)")
        print(
            f"wrote {trace_path} ({len(trace_doc['traceEvents'])} events; "
            "open in Perfetto / chrome://tracing)"
        )

    status = 0
    if problems:
        status = 1
        print(f"\ntrace FAILED schema validation ({len(problems)} problems):")
        for problem in problems[:10]:
            print(f"  {problem}")
    else:
        print("\ntrace passed schema validation")

    root_id = find_full_query_root(obs.tracer)
    if root_id is None:
        status = 1
        print("no query span tree crosses client->resolver->mopifq->auth")
    else:
        print("\none query's full life (client -> resolver -> MOPI-FQ -> auth):\n")
        print(render_span_tree(obs.tracer, root_id))

    print(f"\n{render_obs_summary(obs, top=top)}")
    dropped = obs.tracer.dropped
    if dropped:
        print(f"\n({dropped} spans dropped beyond max_spans)")
    return status
