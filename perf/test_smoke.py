"""Smoke test of the perf ledger (``pytest perf/``; not part of tier-1).

Every workload goes through the code path the benchmark driver uses
(``measure``: fresh child processes, untraced then traced), at a tiny size.
The scenario-shape checks are tuned to the full size and are not asserted
here; everything else is.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perf import run, workloads  # noqa: E402

TINY_SECONDS = 1.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: per-layer metric prefixes that must read exactly 0 on a workload
ZERO_METRICS = {
    "ctrl_path": ("netsim.", "dnscore.", "server.", "transport.", "fluid.", "workloads.", "obs."),
    "sim_nx_dcc": ("transport.", "fluid.", "dcc.ctrl."),
    "sim_ff_vanilla": ("dcc.", "util.ordmap.", "transport.", "fluid.", "obs."),
    "live_wc_dcc": ("netsim.", "fluid.", "workloads.", "dcc.ctrl.", "obs."),
    "live_pool_bare": ("dcc.", "netsim.", "fluid.", "workloads.", "obs."),
    "scale_hybrid": ("transport.", "dcc.ctrl.", "obs."),
}


@functools.lru_cache(maxsize=None)
def record(workload: str) -> dict:
    return run.measure(workload, seed=5, seconds=TINY_SECONDS, repeats=1, trace=True)


def test_benchmark_json_follows_the_contract() -> None:
    spec = run._spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"] and spec["command"] == ["python3", "perf/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer") for entry in spec[group]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = [entry for entry in spec["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    assert set(workloads.ZERO_CALL_LAYERS) == set(workloads.RUNNERS) == set(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_reports_every_metric_and_passes_its_checks(workload: str) -> None:
    spec = run._spec()
    result = record(workload)

    # digests, zero-call predictions, conservation, liveness: all but shape
    assert [line for line in result["problems"] if "shape:" not in line] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert (result["digest"] is not None) == (workload in workloads.DETERMINISTIC)

    assert list(result["end_to_end"]) and set(result["end_to_end"]) == {e["name"] for e in spec["end_to_end"]}
    for name, values in result["end_to_end"].items():
        assert all(math.isfinite(value) and value > 0 for value in values), (name, values)

    layer = result["per_layer"]
    assert set(layer) == {entry["name"] for entry in spec["per_layer"]}
    assert all(math.isfinite(value) and value >= 0 for value in layer.values())
    assert layer["trace.overhead_ratio"] > 0
    for name, value in layer.items():
        if name.startswith(ZERO_METRICS[workload]):
            assert value == 0, f"{name} = {value} on {workload}, predicted 0"
    # and the layers a workload exists to exercise are really entered
    busy = {"ctrl_path": "dcc.mopifq.dequeue_calls", "sim_nx_dcc": "dcc.policing.check_calls",
            "sim_ff_vanilla": "server.ratelimit.allow_calls", "live_wc_dcc": "dnscore.wire.decode_calls",
            "live_pool_bare": "server.cache.get_calls", "scale_hybrid": "fluid.bridge.ticks"}
    assert layer[busy[workload]] > 0
    if workload == "sim_nx_dcc":
        assert layer["obs.on_over_off_wall_ratio"] > 0


def test_self_times_add_up_to_the_traced_wall(tmp_path) -> None:
    trace_file = tmp_path / "trace.json"
    run._spawn("sim_nx_dcc", 5, TINY_SECONDS, "traced", str(trace_file))
    trace = json.loads(trace_file.read_text())
    attributed = sum(entry["self_s"] for entry in trace["aggregates"].values())
    assert 0.75 * trace["wall_s"] <= attributed <= 1.0001 * trace["wall_s"]
    assert trace["spans"] and trace["queries_seen"] > 0
    ids = {span[0] for span in trace["spans"]}
    assert all(span[4] == 0 or span[4] in ids for span in trace["spans"][:1000])


def test_compare_of_a_file_with_itself_is_all_same(tmp_path, capsys) -> None:
    document = {"schema": run.SCHEMA, "seed": 5, "seconds": TINY_SECONDS,
                "workloads": {name: record(name) for name in ("ctrl_path", "live_pool_bare")}}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(document))
    assert run.run_compare(str(path), str(path)) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "(base A=" in line]
    assert len(rows) == 2 * len(run._spec()["end_to_end"])
    assert all(row.split("  (base A=")[0].endswith("same") for row in rows)


def test_benchmark_refuses_to_run_without_the_program(tmp_path) -> None:
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, "perf/run.py", "--workload", "ctrl_path", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0 and done.stdout.strip() == ""
