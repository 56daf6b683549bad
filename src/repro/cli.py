"""Command-line entry point: ``python -m repro <command> [flags]``.

Every subcommand is a driver that owns its argparse; everything after
the command name is handed to it verbatim (``repro <command> --help``
lists its flags, README.md has the table).  The perf ledger is not a
subcommand: ``python3 perf/run.py``, see perf/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

#: ``name -> ("module:function", help)``; ``function(argv) -> int``
COMMANDS: Dict[str, Tuple[str, str]] = {
    "fig2": ("repro.experiments.fig2_ratelimits:main", "rate limits of 45 open resolvers"),
    "fig4": ("repro.experiments.fig4_attacks:main", "attack validation sweeps (setups a-d)"),
    "fig8": ("repro.experiments.fig8_resilience:main", "DCC vs vanilla (Table 2 scenarios)"),
    "fig9": ("repro.experiments.fig9_signaling:main", "signaling on/off on a forwarder chain"),
    "fig10": ("repro.experiments.fig10_overhead:main", "overhead vs tracked entities"),
    "fig11": ("repro.experiments.fig11_delay:main", "added processing delay CDFs"),
    "table1": ("repro.experiments.table1_state:main", "DCC state vs resolver state"),
    "ablations": ("repro.experiments.ablations:main",
                  "design-choice ablations (schedulers, depth, mitigations, countdown, end-to-end schedulers)"),
    "selfcheck": ("repro.experiments.selfcheck:main",
                  "prove determinism: run a DCC scenario twice under the SimSan sanitizer and diff "
                  "event-trace hashes"),
    "obs": ("repro.experiments.obs_demo:main",
            "run one observed fig4-style scenario and export metrics.jsonl + a Perfetto-loadable Chrome trace"),
    "fuzz": ("repro.cli:_cmd_fuzz",
             "property-based scenario fuzzing with invariant oracles (deterministic: same seed -> same "
             "verdict log and digest)"),
    "chaos": ("repro.experiments.chaos_unified:main",
              "replay a fault plan on the sim or live (real UDP socket) backend, one run per resolver "
              "configuration, and audit recovery SLOs; --plan total-outage / crash-ramp is the fault "
              "matrix, --backend live with examples/chaos_none.json the real-socket smoke"),
    "scale": ("repro.experiments.scale:main",
              "million-client hybrid fluid/packet scenario with double-run digests per mode and a "
              "hybrid-vs-packet verdict gate"),
    "lint": ("repro.cli:_cmd_lint",
             "run the reprolint static analyzer (rules R1-R11) over src/ tests/ tools/, or the given paths"),
}


def _cmd_fuzz(argv: Optional[List[str]] = None) -> int:
    from repro.fuzz import corpus as fuzz_corpus
    from repro.fuzz.engine import fuzz as run_fuzz

    parser = argparse.ArgumentParser(prog="repro fuzz", description=COMMANDS["fuzz"][1])
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument("--iterations", type=int, default=25, help="scenario draws to run")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop after this many wall-clock seconds (may end before --iterations)")
    parser.add_argument("--log", type=str, default=None, help="write the JSONL verdict log to this file")
    parser.add_argument("--corpus-dir", type=str, default="results/fuzz-corpus",
                        help="directory for shrunk counterexamples (curate into tests/regressions/ by hand)")
    parser.add_argument("--shrink-budget", type=int, default=150, help="max scenario re-runs per minimisation")
    parser.add_argument("--inject-bug", type=str, default=None, choices=["dangling-glueless"],
                        help="re-introduce a known-fixed defect (fuzzer self-test / corpus regeneration)")
    parser.add_argument("--replay", type=str, default=None, metavar="FILE",
                        help="re-run one counterexample file and exit")
    parser.add_argument("--replay-with-bug", action="store_true",
                        help="honor the file's recorded bug injection on replay")
    parser.add_argument("--quiet", action="store_true", help="suppress the live verdict-log tail")
    args = parser.parse_args(argv)

    if args.replay is not None:
        scenario, _, violations = fuzz_corpus.replay(args.replay, honor_injection=args.replay_with_bug)
        print(f"replayed {scenario.scenario_id}: {scenario.describe()}")
        for violation in violations:
            print(f"  VIOLATION [{violation.oracle}] {violation.detail}")
        if not violations:
            print("  ok: all oracles pass")
        return 1 if violations else 0

    report = run_fuzz(
        master_seed=args.seed, iterations=args.iterations, inject_bug=args.inject_bug,
        shrink_budget=args.shrink_budget, corpus_dir=args.corpus_dir, time_budget=args.time_budget,
        clock=time.monotonic if args.time_budget is not None else None,
        on_line=None if args.quiet else print,
    )
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.log_lines) + "\n")
    print(f"fuzz: {report.iterations_run} iteration(s), {len(report.counterexamples)} counterexample(s), "
          f"stopped by {report.stopped_by}, digest {report.digest}")
    for ce in report.counterexamples:
        oracles = ",".join(sorted({v.oracle for v in ce.violations}))
        where = ce.path or ce.scenario.scenario_id
        print(f"  {where}: [{oracles}] size {ce.original_size} -> {ce.scenario.size()}")
    return 0 if report.ok else 1


def _cmd_lint(argv: Optional[List[str]] = None) -> int:
    """Hand ``argv`` to ``tools.reprolint``.  The linter lints the repo,
    it is not part of the library, so it is found relative to the
    ``repro`` package and only in a source checkout."""
    import repro

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    if not os.path.isdir(os.path.join(repo_root, "tools", "reprolint")):
        print("repro lint: tools/reprolint not found; run from a source checkout", file=sys.stderr)
        return 2
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tools.reprolint.__main__ import main as lint_main

    return lint_main(argv)


def _run(name: str, argv: List[str]) -> int:
    module, _, function = COMMANDS[name][0].partition(":")
    return getattr(importlib.import_module(module), function)(argv)


def main(argv: Optional[List[str]] = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    if tokens and tokens[0] in COMMANDS:
        return _run(tokens[0], tokens[1:])
    parser = argparse.ArgumentParser(prog="repro", description="Regenerate the paper's tables and figures "
                                     "(DNS Congestion Control in Adversarial Settings, SOSP 2024).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    parser.parse_args(tokens)  # no command, an unknown one or --help: argparse reports and exits
    return 2
