"""CLI for reprolint: ``python -m tools.reprolint src/ tests/ tools/``.

Exit codes: 0 clean, 1 findings (or ratchet regression), 2 usage error
(e.g. a nonexistent path).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from tools.reprolint import (
    DEFAULT_BASELINE,
    LintPathError,
    fingerprint,
    load_baseline,
    run,
    split_by_baseline,
    to_json,
    write_baseline,
)
from tools.reprolint import autofix, engine, layering, ratchet, sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Simulation-purity static analysis for the repro codebase "
                    "(per-file rules R1-R5, whole-program rules R6-R9).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help="baseline file of grandfathered findings (default: the checked-in one)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report grandfathered findings too",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write findings as SARIF 2.1.0 (GitHub code scanning)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply mechanical autofixes (R3 sorted() wrapping, R5 print "
             "removal) and re-lint",
    )
    parser.add_argument(
        "--ratchet", nargs="?", const=ratchet.DEFAULT_RATCHET, default=None,
        metavar="FILE",
        help="enforce the per-rule ratchet (counts may only decrease); "
             "optional argument overrides the budget file",
    )
    parser.add_argument(
        "--update-ratchet", action="store_true",
        help="write current per-rule counts to the ratchet file and exit 0",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="per-file rules only (skip the R6-R9 whole-program passes)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash incremental cache",
    )
    parser.add_argument(
        "--cache", default=engine.DEFAULT_CACHE, metavar="FILE",
        help=f"cache file location (default: {engine.DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print timing and cache-hit statistics",
    )
    parser.add_argument(
        "--explain-layers", action="store_true",
        help="print the R6 layering contract and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.explain_layers:
        print(layering.render_contract())
        return 0

    cache_path = None if args.no_cache else args.cache

    def lint() -> engine.LintResult:
        return run(
            args.paths,
            cache_path=cache_path,
            project_rules=not args.no_project,
        )

    try:
        result = lint()
    except LintPathError as error:
        print(f"reprolint: error: {error}", file=sys.stderr)
        return 2

    if args.fix:
        report = autofix.apply_fixes(result.findings)
        for path in report.files_changed:
            print(f"fixed: {path}")
        if report.files_changed:
            result = lint()  # re-lint the rewritten tree
        print(f"reprolint --fix: {report.fixes_applied} fix(es) in "
              f"{len(report.files_changed)} file(s)")

    findings = result.findings

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    if args.update_ratchet:
        target = args.ratchet or ratchet.DEFAULT_RATCHET
        ratchet.write_ratchet(target, ratchet.count_by_rule(findings))
        print(f"wrote per-rule counts to {target}")
        return 0

    baseline = frozenset() if args.no_baseline else load_baseline(args.baseline)
    new, grandfathered = split_by_baseline(findings, baseline)

    if args.sarif:
        sarif.write_sarif(args.sarif, new, fingerprint)

    if args.format == "json":
        print(to_json(new, grandfathered=len(grandfathered)))
    else:
        for finding in new:
            print(finding.render())
        suffix = f" ({len(grandfathered)} grandfathered)" if grandfathered else ""
        print(f"reprolint: {len(new)} finding(s){suffix}")

    status = 1 if new else 0
    if args.ratchet is not None:
        ok, messages = ratchet.check_ratchet(new, args.ratchet)
        for message in messages:
            print(message)
        # the ratchet is the gate: findings within budget do not fail
        status = 0 if ok else 1

    if args.stats:
        print(result.stats.render())
    return status


if __name__ == "__main__":
    sys.exit(main())
