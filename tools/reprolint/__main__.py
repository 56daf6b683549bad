"""CLI for reprolint: ``python -m tools.reprolint [paths]`` (default:
``src/ tests/ tools/`` of this checkout).

Exit codes: 0 clean, 1 findings (or ratchet regression), 2 usage error
(e.g. a nonexistent path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from tools.reprolint import LintPathError, layering, ratchet, run, to_json

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Simulation-purity static analysis for the repro codebase "
                    "(per-file rules R1-R5, whole-program rules R6-R11).",
    )
    parser.add_argument(
        "paths", nargs="*",
        default=[os.path.join(_REPO_ROOT, name) for name in ("src", "tests", "tools")],
        help="files or directories to lint (default: this checkout's src/ tests/ tools/)",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
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
        help="per-file rules only (skip the R6-R11 whole-program passes)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print timing statistics",
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

    try:
        result = run(args.paths, project_rules=not args.no_project)
    except LintPathError as error:
        print(f"reprolint: error: {error}", file=sys.stderr)
        return 2
    findings = result.findings

    if args.update_ratchet:
        target = args.ratchet or ratchet.DEFAULT_RATCHET
        ratchet.write_ratchet(target, ratchet.count_by_rule(findings))
        print(f"wrote per-rule counts to {target}")
        return 0

    if args.format == "json":
        print(to_json(findings))
    else:
        for finding in findings:
            print(finding.render())
        print(f"reprolint: {len(findings)} finding(s)")

    status = 1 if findings else 0
    if args.ratchet is not None:
        ok, messages = ratchet.check_ratchet(findings, args.ratchet)
        for message in messages:
            print(message)
        # the ratchet is the gate: findings within budget do not fail
        status = 0 if ok else 1

    if args.stats:
        print(result.stats.render())
    return status


if __name__ == "__main__":
    sys.exit(main())
