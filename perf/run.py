"""The perf ledger's one command.

Three ways in, one code path underneath (``measure``):

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, for the benchmark driver.  The last line of
    stdout is one JSON object ``{"correct", "attempted", "failed",
    "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1``.

``PYTHONPATH=src python -m perf.run [--seed 42] [--repeats 3] [--out FILE] [--trace-out FILE]``
    The whole ledger: every workload ``--repeats`` times untraced, then one
    traced pass each (plus one ``obs``-on pass of ``sim_nx_dcc``), every
    metric printed by name with its unit, every output check run.

``python -m perf.run --compare A.json B.json``
    Two ``--out`` files side by side, judged by the bounds in
    ``BENCHMARK.json``.

Every pass runs in a fresh child process (clean heap, clean memory high-water mark),
one at a time.  The child is this same file with ``--child``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1
CHILD_TIMEOUT_S = 170
#: a driver run times set-up in this many set-up-only children besides the
#: measured pass, and reports the median
EXTRA_SETUPS = 2
#: ``--compare``: a rise of the failed share up to this much is not a verdict
FAILED_FRAC_SLACK = 0.002


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    # inclusive: with three repeats the quartiles must stay inside the data
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# the child: one pass of one workload
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """This process's own high-water mark.  Not ``ru_maxrss``: Linux starts
    a child's ``ru_maxrss`` at its parent's size at the time of the fork."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _child(args: argparse.Namespace) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    started_at = args.started_at or time.time()
    # Every child runs on the same vCPU.  One that has sat idle runs up to
    # 1.75x slower for its first seconds; left to the scheduler, each fresh
    # child lands on the idle one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from perf import workloads
    from perf.trace import Tracer

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    harness = workloads.Harness(started_at, tracer, obs=args.mode == "obs", setup_only=args.mode == "setup")
    p = workloads.params(args.child, args.seconds)
    try:
        outcome = workloads.RUNNERS[args.child](args.seed, p, harness)
    except workloads.SetupOnly:
        print(json.dumps({"setup_s": harness.setup_s}))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()

    queries = max(outcome.queries, 1)
    live = args.child in workloads.LIVE
    reference_wall = harness.reference_s(0)
    # real seconds of the timed phase: an open loop's clock keeps running
    # through the probes, a batch workload's does not
    timed_s = harness.elapsed_s if live else harness.wall_s
    latency = outcome.latency_p50_ms
    report: Dict[str, Any] = {
        "setup_s": harness.setup_s,
        "queries": outcome.queries,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "problems": outcome.problems,
        # raw seconds, for the reader; every gated time is in reference
        # seconds (perf/refclock.py)
        "wall_s": timed_s,
        "cpu_s": sum(entry[1] for entry in harness.slices),
        "reference_wall_s": reference_wall,
        "raw_queries_per_s": outcome.queries / timed_s,
        "slices": len(harness.slices),
        "end_to_end": {
            # an open loop's rate is set by its generator: real time
            "queries_per_s": outcome.queries / (timed_s if live else reference_wall),
            "cpu_us_per_query": harness.reference_s(1) * 1e6 / queries,
            "latency_p50_ms": harness.reference_ms_per_thousand_queries() if latency is None else latency,
            "success_frac": outcome.success_frac,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    layer = dict(outcome.layer)
    layer["netsim.sim.events_per_query"] = layer.get("netsim.sim.events", 0) / queries
    layer["fluid.cohort.client_updates_per_s"] = layer.pop("fluid.bridge.client_updates", 0) / reference_wall
    if tracer is not None:
        layer.update(tracer.metrics(outcome.queries))
        report["layer_calls"] = tracer.layer_calls()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    report["layer"] = layer
    print(json.dumps(report))
    return 0


def _spawn(workload: str, seed: int, seconds: float, mode: str, trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one child to completion and return its report."""
    command = [sys.executable, os.path.abspath(__file__), "--child", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--mode", mode, "--started-at", repr(time.time())]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} ({mode}) child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# one workload, measured
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, repeats: int, trace: bool,
            extra_setups: int = 0, trace_out: Optional[str] = None) -> Dict[str, Any]:
    """``repeats`` untraced passes (and, with ``trace``, one traced pass)
    of one workload, with every output check applied."""
    from perf.workloads import DETERMINISTIC, ZERO_CALL_LAYERS, params

    setups = [_spawn(workload, seed, seconds, "setup")["setup_s"] for _ in range(extra_setups)]
    passes = [_spawn(workload, seed, seconds, "plain") for _ in range(repeats)]
    problems = [f"pass {i + 1}: {line}" for i, report in enumerate(passes) for line in report["problems"]]
    digests = {report["digest"] for report in passes}
    if workload in DETERMINISTIC and len(digests) != 1:
        problems.append(f"outcome digest differs between repeats: {sorted(digests)}")

    end_to_end = {name: [report["end_to_end"][name] for report in passes] for name in passes[0]["end_to_end"]}
    end_to_end["setup_s"] = setups + [report["setup_s"] for report in passes]
    record: Dict[str, Any] = {
        "params": params(workload, seconds),
        "repeats": repeats,
        "digest": passes[0]["digest"],
        "attempted": sum(report["attempted"] for report in passes),
        "failed": sum(report["failed"] for report in passes),
        "end_to_end": end_to_end,
        # not gated: what the clock on the wall said
        "raw": {"wall_s": [report["wall_s"] for report in passes],
                "queries_per_s": [report["raw_queries_per_s"] for report in passes]},
    }

    if trace:
        plain = passes[0]
        traced = _spawn(workload, seed, seconds, "traced", trace_out)
        problems.extend(f"traced pass: {line}" for line in traced["problems"])
        if workload in DETERMINISTIC and traced["digest"] != plain["digest"]:
            problems.append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
        for layer in ZERO_CALL_LAYERS[workload]:
            calls = traced["layer_calls"].get(layer, 0)
            if calls:
                problems.append(f"{calls} calls into {layer}.*, expected none on {workload}")
        layer_metrics = dict(traced["layer"])
        # timings the workload takes itself are read where tracing does
        # not inflate them
        for name, value in plain["layer"].items():
            if name.endswith(("_ms", "_us", "_s")):
                layer_metrics[name] = value
        # raw CPU seconds: what the wrappers cost, on the open loops too
        untraced_cpu = statistics.median(report["cpu_s"] for report in passes)
        layer_metrics["trace.overhead_ratio"] = traced["cpu_s"] / untraced_cpu
        if workload == "sim_nx_dcc":
            observed = _spawn(workload, seed, seconds, "obs")
            if observed["digest"] != plain["digest"]:
                problems.append(f"obs-on digest {observed['digest']} != obs-off {plain['digest']}")
            layer_metrics["obs.on_over_off_wall_ratio"] = observed["reference_wall_s"] / statistics.median(
                report["reference_wall_s"] for report in passes)
        record["per_layer"] = {
            entry["name"]: float(layer_metrics.get(entry["name"], 0.0)) for entry in _spec()["per_layer"]
        }
    record["problems"] = problems
    return record


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _print_record(workload: str, record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(f"== {workload} (repeats={record['repeats']}) ==")
    print(f"   params: {json.dumps(record['params'], sort_keys=True)}")
    if record["digest"]:
        print(f"   outcome digest: {record['digest']}")
    for entry in spec["end_to_end"]:
        values = record["end_to_end"][entry["name"]]
        q1, median, q3 = _quartiles(values)
        print(f"   {entry['name']:<44} {median:>14.6g} {entry['unit']:<6} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    raw = record["raw"]
    print(f"   (raw, not gated: timed phase {statistics.median(raw['wall_s']):.3f} s on the wall, "
          f"{statistics.median(raw['queries_per_s']):.6g} queries per wall second)")
    for entry in spec["per_layer"] if "per_layer" in record else ():
        print(f"   {entry['name']:<44} {record['per_layer'][entry['name']]:>14.6g} {entry['unit']}")
    for line in record["problems"]:
        print(f"   CHECK FAILED: {line}")
    if not record["problems"]:
        print("   output checks: ok")


def _git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=ROOT, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_driver(args: argparse.Namespace) -> int:
    """One run for the benchmark driver; the JSON result is the last line."""
    spec = _spec()
    trace = bool(args.trace)
    record = measure(args.workload, args.seed, args.seconds, repeats=1, trace=trace,
                     extra_setups=0 if trace else EXTRA_SETUPS, trace_out=args.trace_out)
    _print_record(args.workload, record, spec)
    if trace:
        metrics = {entry["name"]: {"value": record["per_layer"][entry["name"]], "unit": entry["unit"]}
                   for entry in spec["per_layer"]}
    else:
        metrics = {entry["name"]: {"value": statistics.median(record["end_to_end"][entry["name"]]),
                                   "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}
    correct = not record["problems"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_ledger(args: argparse.Namespace) -> int:
    """Every workload: repeats, then the traced pass; optional ``--out``."""
    from perf.workloads import NAMES

    spec = _spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    document: Dict[str, Any] = {
        "schema": SCHEMA, "git_rev": _git_rev(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed, "repeats": args.repeats,
        "seconds": seconds, "workloads": {},
    }
    failed = False
    for workload in NAMES:
        trace_file = None
        if args.trace_out:  # one file per workload: t.json -> t.ctrl_path.json
            stem, extension = os.path.splitext(args.trace_out)
            trace_file = f"{stem}.{workload}{extension}"
        record = measure(workload, args.seed, seconds, args.repeats, trace=True, trace_out=trace_file)
        _print_record(workload, record, spec)
        if trace_file:
            print(f"   [trace written to {trace_file}]")
        document["workloads"][workload] = record
        failed = failed or bool(record["problems"])
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"[written to {args.out}]")
    print("output checks: " + ("FAILED" if failed else "all ok"))
    return 1 if failed else 0


def run_compare(path_a: str, path_b: str) -> int:
    """A (the base) against B, one row per (workload, end-to-end metric)."""
    with open(path_a, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        change = json.load(handle)
    if base.get("schema") != SCHEMA or change.get("schema") != SCHEMA:
        print(f"compare: both files must have schema {SCHEMA}")
        return 2
    spec = _spec()
    bad = False
    for key in ("seed", "seconds"):
        if base[key] != change[key]:
            print(f"note: {key} differs ({base[key]} vs {change[key]}); digests and counts are not comparable")
    print(f"{'workload':<16}{'metric':<18}{'A median [q1,q3]':<36}{'B median [q1,q3]':<36}"
          f"{'B/A':>8} {'bound':>6}  verdict")
    for workload, a_record in base["workloads"].items():
        b_record = change["workloads"].get(workload)
        if b_record is None:
            print(f"{workload:<16}missing from {path_b}")
            bad = True
            continue
        if a_record["params"] != b_record["params"]:
            print(f"{workload:<16}parameters differ: rows below compare different work")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a_q1, a_med, a_q3 = _quartiles(a_record["end_to_end"][name])
            b_q1, b_med, b_q3 = _quartiles(b_record["end_to_end"][name])
            ratio = b_med / a_med if a_med else math.inf
            # worsening as a share of A's median, whichever way is worse
            worse_by = (ratio - 1.0) if entry["better"] == "lower" else (1.0 - ratio)
            spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med) if a_med else 0.0
            overlap = a_q1 <= b_q3 and b_q1 <= a_q3
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound and overlap and abs(worse_by) > 0:
                verdict = "unresolved"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "same"
            bad = bad or verdict == "worse"
            print(f"{workload:<16}{name:<18}"
                  f"{f'{a_med:.6g} [{a_q1:.6g},{a_q3:.6g}]':<36}"
                  f"{f'{b_med:.6g} [{b_q1:.6g},{b_q3:.6g}]':<36}"
                  f"{ratio:>8.4f} {bound:>6.2f}  {verdict}  (base A={a_med:.6g} {entry['unit']})")
        a_failed = a_record["failed"] / a_record["attempted"]
        b_failed = b_record["failed"] / b_record["attempted"]
        if b_failed > a_failed:
            # a stall of the host can cost a live run a handful of queries
            worse = b_failed - a_failed > FAILED_FRAC_SLACK
            print(f"{workload:<16}failed operations rose from {a_record['failed']} to {b_record['failed']} "
                  f"of {b_record['attempted']}" + (": worse" if worse else " (within the slack of a host stall)"))
            bad = bad or worse
        if a_record["digest"] != b_record["digest"]:
            print(f"{workload:<16}outcome digest changed: {a_record['digest']} -> {b_record['digest']}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (benchmark-driver mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of one timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = report the per-layer metrics of a traced pass")
    parser.add_argument("--repeats", type=int, default=3, help="ledger mode: untraced passes per workload")
    parser.add_argument("--out", help="ledger mode: write the self-describing JSON here")
    parser.add_argument("--trace-out", help="write span aggregates and kept span records here "
                        "(ledger mode: one file per workload, its name put before the extension)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("plain", "traced", "obs", "setup"), default="plain",
                        help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child(args)
    if args.compare:
        return run_compare(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perf.run: src/repro not found next to perf/; nothing to measure\n")
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if args.workload:
        if args.seconds is None:
            args.seconds = float(_spec()["run_seconds"])
        return run_driver(args)
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
