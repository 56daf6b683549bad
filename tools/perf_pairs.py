"""Alternating parent/change pairs of one workload, judged by the claim rule.

``python tools/perf_pairs.py --workload W [--seed 7] [--pairs 10] [--seconds S] --against PARENT_CHECKOUT``

Runs ``BENCHMARK.json``'s command with ``--workload W --seed N --seconds S
--trace 0`` once in the parent checkout and once in this one per pair,
alternating which side goes first, and prints one row per run (``failed``
included), then per end-to-end metric each side's median [q1, q3], the pairs
the change won, and the verdict of the choosing-metrics guide, section 8: a
``gain`` needs the change better in at least nine tenths of all pairs (ties
count for neither side) **and** medians further apart than the parent's own
quartiles.  Anything else is ``worse`` (the mirror image), ``same`` (every
pair tied) or ``unresolved``.

Exits non-zero on any run with ``failed > 0``, ``correct: false``, a non-zero
exit, no JSON last line, or an outcome digest that differs from the parent's
first run -- the faults of ``tools/perf_fence.py``, whose ``invoke`` and
``_faults`` this reuses (shape checks are excused below ``run_seconds`` the
same way).  Every child pins itself to one vCPU: run nothing else alongside.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf.run import _quartiles as quartiles  # noqa: E402  (the ledger's own: inclusive, (q1, median, q3))
from tools.perf_fence import _faults, _spec, invoke  # noqa: E402

#: share of all pairs the change must win (lose) for a gain (worse) verdict
WIN_SHARE = 0.9
#: fewer pairs than this exercise the tool; they do not support a claim
CLAIM_PAIRS = 10


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, Any]:
    """Judge one metric over paired runs (``parent[i]`` ran beside ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    lost = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0: the change's median is the better one
    spread = p_q3 - p_q1
    needed = WIN_SHARE * len(parent)
    if won == lost == 0:
        label = "same"  # every pair tied (a count that repeats exactly)
    elif won >= needed and gap > spread:
        label = "gain"
    elif lost >= needed and -gap > spread:
        label = "worse"
    else:
        label = "unresolved"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3), "won": won, "lost": lost,
            "pairs": len(parent), "ratio": c_med / p_med if p_med else float("nan"),
            "gap": gap, "parent_iqr": spread, "verdict": label}


def main(argv: Optional[List[str]] = None) -> int:
    spec = _spec(ROOT)
    parser = argparse.ArgumentParser(prog="perf_pairs", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--against", metavar="PARENT_CHECKOUT", required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.against, "BENCHMARK.json")):
        parser.error(f"{args.against} is not a checkout (no BENCHMARK.json)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    full_size = args.seconds >= spec["run_seconds"]
    checkouts = {"parent": args.against, "change": ROOT}
    metrics = [entry["name"] for entry in spec["end_to_end"]]
    values: Dict[str, Dict[str, List[float]]] = {side: {name: [] for name in metrics} for side in checkouts}
    parent_digest: Optional[str] = None
    bad = 0
    print(f"{'pair':>4} {'side':<7}{'exit':>5} {'correct':<8}{'attempted':>10}{'failed':>7}  {'digest':<12}  "
          + "  ".join(metrics))
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = invoke(checkouts[side], args.workload, args.seed, args.seconds, 0)
            if parent_digest is None:  # the first run is the parent's; live workloads print none
                parent_digest = run["digest"]
            faults = _faults(run, parent_digest, full_size)
            result = run["result"] or {}
            measured = {name: entry["value"] for name, entry in result.get("metrics", {}).items()}
            print(f"{pair + 1:>4} {side:<7}{run['exit']!s:>5} {str(result.get('correct', '-')).lower():<8}"
                  f"{result.get('attempted', '-')!s:>10}{result.get('failed', '-')!s:>7}  "
                  f"{(run['digest'] or '-')[:12]:<12}  "
                  + "  ".join(f"{measured[name]:.6g}" if name in measured else "-" for name in metrics)
                  + (f"  <-- {'; '.join(faults)}" if faults else ""), flush=True)
            if faults and run["stderr"]:
                sys.stderr.write(run["stderr"][-2000:])
            bad += bool(faults)
            for name in metrics:
                if name in measured:
                    values[side][name].append(measured[name])

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} alternating pairs at --seconds {args.seconds:g}: "
          "median [q1, q3], parent -> change"
          + ("" if args.pairs >= CLAIM_PAIRS else f" (fewer than {CLAIM_PAIRS} pairs: no verdict below is a claim)"))
    for entry in spec["end_to_end"]:
        name = entry["name"]
        parent, change = values["parent"][name], values["change"][name]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"  {name:<18} not reported by every run")
            continue
        v = verdict(parent, change, entry["better"])
        print(f"  {name:<18}{v['parent'][0]:>10.6g} [{v['parent'][1]:.6g}, {v['parent'][2]:.6g}] -> "
              f"{v['change'][0]:.6g} [{v['change'][1]:.6g}, {v['change'][2]:.6g}] {entry['unit']}"
              f"  x{v['ratio']:.3f}  won {v['won']}/{v['pairs']} lost {v['lost']}"
              f"  gap {v['gap']:.4g} vs parent IQR {v['parent_iqr']:.4g}  {v['verdict']}")
    total = 2 * args.pairs
    print(f"perf pairs: {total - bad}/{total} runs clean and digest-equal to {args.against}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
