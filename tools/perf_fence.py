"""Pre-flight for the benchmark driver: zero failed operations, same digests.

``python tools/perf_fence.py [--seconds S] [--seeds 7,42] [--against PARENT_CHECKOUT]``

Per seed, runs the twelve invocations the driver makes -- ``BENCHMARK.json``'s
command with ``--workload W --seed N --seconds S --trace {0,1}``, from the
checkout's root -- and prints one row each::

    workload trace exit correct attempted failed digest

Exits non-zero on any non-zero exit, missing JSON last line, ``correct:
false`` or ``failed > 0``.  With ``--against`` the untraced invocation of
every workload that prints an outcome digest also runs in the parent checkout,
and a digest that differs from the parent's fails too.  A perf PR that is
faster but strands one request at the cut-off, or whose traced pass dies on a
renamed patch point, is refused by the driver; this says so first.

The scenario-shape checks (``shape:`` lines) are tuned to the benchmark's own
run length.  Below it (CI runs ``--seconds 1``) a run whose *only* failed
checks are shape checks is printed as ``shape`` and not counted, as
``perf/test_smoke.py`` does; at ``run_seconds`` and above nothing is excused.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"^\s*outcome digest: ([0-9a-f]{64})\s*$", re.MULTILINE)
FAILED_CHECK = re.compile(r"^\s*CHECK FAILED: (.*)$", re.MULTILINE)
INVOCATION_TIMEOUT_S = 900


def _spec(checkout: str) -> Dict[str, Any]:
    with open(os.path.join(checkout, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def invoke(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One driver invocation in ``checkout``: exit code, parsed last line
    (None if it is not the result object) and the printed outcome digest."""
    argv = [*_spec(checkout)["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "result": None, "digest": None, "checks": [], "stderr": ""}
    lines = done.stdout.strip().splitlines()
    result: Optional[Dict[str, Any]] = None
    try:
        parsed = json.loads(lines[-1])
        if isinstance(parsed, dict) and {"correct", "attempted", "failed"} <= set(parsed):
            result = parsed
    except (IndexError, ValueError):
        pass
    digest = DIGEST.search(done.stdout)
    return {"exit": done.returncode, "result": result, "digest": digest.group(1) if digest else None,
            "checks": FAILED_CHECK.findall(done.stdout), "stderr": done.stderr}


def _shape_only(run: Dict[str, Any]) -> bool:
    """The run failed output checks, all of them scenario-shape checks."""
    return bool(run["checks"]) and all("shape:" in line for line in run["checks"])


def _faults(run: Dict[str, Any], parent_digest: Optional[str], full_size: bool) -> List[str]:
    excused = not full_size and _shape_only(run)  # then exit 1 and correct: false are the shape checks'
    faults = []
    if run["exit"] != 0 and not (excused and run["exit"] == 1):
        faults.append(f"exit {run['exit']}")
    result = run["result"]
    if result is None:
        faults.append("no JSON last line")
    else:
        if result["correct"] is not True and not excused:
            faults.append("correct: false")
        if result["failed"] > 0:
            faults.append(f"failed {result['failed']}")
    if parent_digest is not None and run["digest"] != parent_digest:
        faults.append(f"digest differs from the parent's {parent_digest[:12]}")
    return faults


def main(argv: Optional[List[str]] = None) -> int:
    spec = _spec(ROOT)
    parser = argparse.ArgumentParser(prog="perf_fence", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seeds", default="7,42", help="comma-separated workload seeds")
    parser.add_argument("--against", metavar="PARENT_CHECKOUT",
                        help="also require every outcome digest to equal this checkout's")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.against and not os.path.isfile(os.path.join(args.against, "BENCHMARK.json")):
        parser.error(f"{args.against} is not a checkout (no BENCHMARK.json)")

    full_size = args.seconds >= spec["run_seconds"]
    print(f"{'workload':<16}{'seed':>5}{'trace':>6}{'exit':>8} {'correct':<8}{'attempted':>10}{'failed':>7}  digest")
    bad = total = 0
    for seed in seeds:
        for workload in (entry["name"] for entry in spec["workloads"]):
            parent_digest = None
            for trace in (0, 1):
                run = invoke(ROOT, workload, seed, args.seconds, trace)
                if trace == 0 and args.against and run["digest"]:
                    parent_digest = invoke(args.against, workload, seed, args.seconds, 0)["digest"] or "none"
                faults = _faults(run, parent_digest, full_size)
                result = run["result"] or {}
                correct = "shape" if _shape_only(run) else str(result.get("correct", "-")).lower()
                print(f"{workload:<16}{seed:>5}{trace:>6}{run['exit']!s:>8} "
                      f"{correct:<8}{result.get('attempted', '-')!s:>10}"
                      f"{result.get('failed', '-')!s:>7}  {(run['digest'] or '-')[:12]}"
                      + (f"  <-- {'; '.join(faults)}" if faults else ""), flush=True)
                if faults and run["stderr"]:
                    sys.stderr.write(run["stderr"][-2000:])
                total += 1
                bad += bool(faults)
    print(f"perf fence: {total - bad}/{total} invocations clean"
          + (f" and digest-equal to {args.against}" if args.against else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
