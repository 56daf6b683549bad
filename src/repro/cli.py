"""Command-line entry point: ``python -m repro <command>``.

Dispatches to the experiment drivers so the whole evaluation can be
regenerated without writing Python:

    python -m repro fig2 --scale 0.1
    python -m repro fig4 --scale 0.15
    python -m repro fig8 --scale 0.25
    python -m repro fig9 --scale 0.25
    python -m repro fig10 --quick
    python -m repro fig11 --quick
    python -m repro table1
    python -m repro chaos --backend sim   # fault-schedule replay + recovery SLOs
    python -m repro chaos --backend live --slo  # same schedule over real sockets
    python -m repro chaos --backend live --schedule examples/chaos_none.json
                                         # fault-free real-socket smoke
    python -m repro resilience --scale 0.25  # fault matrix: resolver cells x fault plans
    python -m repro selfcheck            # determinism proof (SimSan on)
    python -m repro obs --scale 0.15     # observed run, exports traces
    python -m repro fuzz --seed 42 --iterations 25  # scenario fuzzing
    python -m repro lint                 # reprolint over src/ tests/ tools/
    python -m repro scale --clients 1000000  # hybrid fluid/packet core
    python -m repro all --scale 0.1      # everything, quick settings

(The perf ledger is not a subcommand: ``python3 perf/run.py``, see
perf/README.md.)
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Optional, Tuple

#: drivers that own their argparse: ``name -> ("module:function", help)``.
#: Everything after the command name is forwarded verbatim to
#: ``function(argv) -> int``; the sub-parser registered for each exists
#: only to put the row into ``repro --help``.
_FORWARDED: Dict[str, Tuple[str, str]] = {
    "chaos": (
        "repro.experiments.chaos_unified:main",
        "replay a fault schedule on the sim or live (real UDP socket) "
        "backend and audit recovery SLOs; --backend live with "
        "examples/chaos_none.json is the real-socket smoke",
    ),
    "scale": (
        "repro.experiments.scale:main",
        "million-client hybrid fluid/packet scenario with double-run "
        "digests per mode and a hybrid-vs-packet verdict gate",
    ),
    "lint": (
        "repro.cli:_cmd_lint",
        "run the reprolint static analyzer (rules R1-R9); defaults "
        "to src/ tests/ tools/ against the checked-in ratchet",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures "
        "(DNS Congestion Control in Adversarial Settings, SOSP 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="rate limits of 45 open resolvers")
    fig2.add_argument("--scale", type=float, default=0.1,
                      help="probe rate/duration scale (1.0 = paper rates)")
    fig2.add_argument("--resolvers", type=int, default=None,
                      help="limit the population (default: all 45)")

    fig4 = sub.add_parser("fig4", help="attack validation sweeps (setups a-d)")
    fig4.add_argument("--scale", type=float, default=0.15,
                      help="timeline compression (1.0 = 50-second runs)")
    fig4.add_argument("--quick", action="store_true", help="thin the sweeps")

    fig8 = sub.add_parser("fig8", help="DCC vs vanilla (Table 2 scenarios)")
    fig8.add_argument("--scale", type=float, default=0.25)
    fig8.add_argument("--seed", type=int, default=42)

    fig9 = sub.add_parser("fig9", help="signaling on/off on a forwarder chain")
    fig9.add_argument("--scale", type=float, default=0.25)
    fig9.add_argument("--seed", type=int, default=42)

    fig10 = sub.add_parser("fig10", help="overhead vs tracked entities")
    fig10.add_argument("--quick", action="store_true")
    fig10.add_argument("--ops", type=int, default=50_000)
    fig10.add_argument("--seed", type=int, default=11)

    fig11 = sub.add_parser("fig11", help="added processing delay CDFs")
    fig11.add_argument("--quick", action="store_true")

    sub.add_parser("table1", help="DCC state vs resolver state")
    ablations = sub.add_parser(
        "ablations", help="design-choice ablations (schedulers, depth)"
    )
    ablations.add_argument("--seed", type=int, default=1)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="prove determinism: run a DCC scenario twice under the "
        "SimSan sanitizer and diff event-trace hashes",
    )
    selfcheck.add_argument("--seed", type=int, default=42)
    selfcheck.add_argument("--scale", type=float, default=0.05,
                           help="timeline compression (1.0 = 60-second runs)")
    selfcheck.add_argument("--runs", type=int, default=2)
    selfcheck.add_argument("--out", type=str, default=None,
                           help="also write the report to this file")

    obs = sub.add_parser(
        "obs",
        help="run one observed fig4-style scenario and export "
        "metrics.jsonl + a Perfetto-loadable Chrome trace",
    )
    obs.add_argument("--scale", type=float, default=0.15,
                     help="timeline compression (1.0 = 50-second runs)")
    obs.add_argument("--seed", type=int, default=42)
    obs.add_argument("--out-dir", type=str, default="results/obs",
                     help="directory for metrics.jsonl and trace.json")
    obs.add_argument("--top", type=int, default=10,
                     help="heavy-hitter table depth")

    resilience = sub.add_parser(
        "resilience",
        help="fault matrix under an NX flood: vanilla/hardened/hardened+dcc "
        "through a total authoritative outage, vanilla/dcc through a "
        "primary crash + loss ramp",
    )
    resilience.add_argument("--scale", type=float, default=0.25)
    resilience.add_argument("--seed", type=int, default=42)
    resilience.add_argument("--out", type=str, default=None,
                            help="also write the report to this file")

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based scenario fuzzing with invariant oracles "
        "(deterministic: same seed -> same verdict log and digest)",
    )
    fuzz.add_argument("--seed", type=int, default=42, help="master seed")
    fuzz.add_argument("--iterations", type=int, default=25,
                      help="scenario draws to run")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      help="stop after this many wall-clock seconds "
                      "(may end before --iterations)")
    fuzz.add_argument("--log", type=str, default=None,
                      help="write the JSONL verdict log to this file")
    fuzz.add_argument("--corpus-dir", type=str, default="results/fuzz-corpus",
                      help="directory for shrunk counterexamples "
                      "(curate into tests/regressions/ by hand)")
    fuzz.add_argument("--shrink-budget", type=int, default=150,
                      help="max scenario re-runs per minimisation")
    fuzz.add_argument("--inject-bug", type=str, default=None,
                      choices=["dangling-glueless"],
                      help="re-introduce a known-fixed defect "
                      "(fuzzer self-test / corpus regeneration)")
    fuzz.add_argument("--replay", type=str, default=None, metavar="FILE",
                      help="re-run one counterexample file and exit")
    fuzz.add_argument("--replay-with-bug", action="store_true",
                      help="honor the file's recorded bug injection on replay")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress the live verdict-log tail")

    for name, (_, help_text) in _FORWARDED.items():
        sub.add_parser(name, help=help_text, add_help=False)

    everything = sub.add_parser("all", help="run every experiment (quick settings)")
    everything.add_argument("--scale", type=float, default=0.1)
    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.fuzz import corpus as fuzz_corpus
    from repro.fuzz.engine import fuzz as run_fuzz

    if args.replay is not None:
        scenario, _, violations = fuzz_corpus.replay(
            args.replay, honor_injection=args.replay_with_bug
        )
        print(f"replayed {scenario.scenario_id}: {scenario.describe()}")
        if violations:
            for violation in violations:
                print(f"  VIOLATION [{violation.oracle}] {violation.detail}")
            return 1
        print("  ok: all oracles pass")
        return 0

    def on_line(line: str) -> None:
        if not args.quiet:
            print(line)

    report = run_fuzz(
        master_seed=args.seed,
        iterations=args.iterations,
        inject_bug=args.inject_bug,
        shrink_budget=args.shrink_budget,
        corpus_dir=args.corpus_dir,
        clock=time.monotonic if args.time_budget is not None else None,
        time_budget=args.time_budget,
        on_line=on_line,
    )
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.log_lines) + "\n")
    print(
        f"fuzz: {report.iterations_run} iteration(s), "
        f"{len(report.counterexamples)} counterexample(s), "
        f"stopped by {report.stopped_by}, digest {report.digest}"
    )
    for ce in report.counterexamples:
        oracles = ",".join(sorted({v.oracle for v in ce.violations}))
        where = ce.path or ce.scenario.scenario_id
        print(f"  {where}: [{oracles}] size {ce.original_size} -> {ce.scenario.size()}")
    return 0 if report.ok else 1


def _cmd_lint(lint_args: List[str]) -> int:
    """Shell into tools.reprolint from the installed-package entry point.

    The linter lives in ``tools/`` (it lints the repo, it is not part of
    the library), so this resolves the repo root relative to the
    ``repro`` package and fails loudly outside a source checkout.
    """
    import os

    import repro

    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    if not os.path.isdir(os.path.join(repo_root, "tools", "reprolint")):
        print("repro lint: tools/reprolint not found; "
              "run from a source checkout", file=sys.stderr)
        return 2
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tools.reprolint.__main__ import main as lint_main

    argv = list(lint_args)
    if not argv:
        argv = ["--ratchet"]  # bare `repro lint` behaves like the CI gate
    if not any(not token.startswith("-") for token in argv):
        argv = [os.path.join(repo_root, p) for p in ("src", "tests", "tools")] + argv
    return lint_main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    if tokens and tokens[0] in _FORWARDED:
        # a REMAINDER positional would drop leading flags (bpo-17050),
        # so these never go through the parser
        module, _, function = _FORWARDED[tokens[0]][0].partition(":")
        return getattr(importlib.import_module(module), function)(tokens[1:])
    args = _build_parser().parse_args(tokens)

    if args.command == "fig2":
        from repro.experiments import fig2_ratelimits

        fig2_ratelimits.main(scale=args.scale, resolver_count=args.resolvers)
    elif args.command == "fig4":
        from repro.experiments import fig4_attacks

        fig4_attacks.main(time_scale=args.scale, quick=args.quick)
    elif args.command == "fig8":
        from repro.experiments import fig8_resilience

        fig8_resilience.main(scale=args.scale, seed=args.seed)
    elif args.command == "fig9":
        from repro.experiments import fig9_signaling

        fig9_signaling.main(scale=args.scale, seed=args.seed)
    elif args.command == "fig10":
        from repro.experiments import fig10_overhead

        fig10_overhead.main(ops=args.ops, quick=args.quick, seed=args.seed)
    elif args.command == "fig11":
        from repro.experiments import fig11_delay

        fig11_delay.main(quick=args.quick)
    elif args.command == "table1":
        from repro.experiments import table1_state

        table1_state.main()
    elif args.command == "ablations":
        from repro.experiments import ablations

        ablations.main(seed=args.seed)
    elif args.command == "selfcheck":
        from repro.experiments import selfcheck

        return selfcheck.main(
            seed=args.seed, scale=args.scale, runs=args.runs, out=args.out
        )
    elif args.command == "obs":
        from repro.experiments import obs_demo

        return obs_demo.main(
            scale=args.scale, seed=args.seed, out_dir=args.out_dir, top=args.top
        )
    elif args.command == "resilience":
        from repro.experiments import resilience_matrix

        return resilience_matrix.main(scale=args.scale, seed=args.seed, out=args.out)
    elif args.command == "fuzz":
        return _cmd_fuzz(args)
    elif args.command == "all":
        from repro.experiments import (
            fig2_ratelimits,
            fig4_attacks,
            fig8_resilience,
            fig9_signaling,
            fig10_overhead,
            fig11_delay,
            resilience_matrix,
            table1_state,
        )

        fig2_ratelimits.main(scale=args.scale, resolver_count=10)
        fig4_attacks.main(time_scale=args.scale, quick=True)
        fig8_resilience.main(scale=args.scale)
        fig9_signaling.main(scale=args.scale)
        fig10_overhead.main(quick=True)
        fig11_delay.main(quick=True)
        table1_state.main()
        resilience_matrix.main(scale=max(args.scale, 0.15))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
