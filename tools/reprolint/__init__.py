"""reprolint: repo-specific simulation-purity static analysis.

Usage::

    python -m tools.reprolint [src/ tests/ tools/] [--format=json]
        [--ratchet] [--stats]

Two kinds of passes:

- **per-file rules R1-R5** (:mod:`tools.reprolint.rules`) -- AST checks
  that need only one file;
- **whole-program rules R6-R11** -- a project pass builds a symbol table
  and import graph (:mod:`tools.reprolint.project`) and runs the
  layering contract, entry-point reachability of modules and options
  (:mod:`~tools.reprolint.layering`), RNG-taint dataflow
  (:mod:`~tools.reprolint.rngflow`), and callback-escape /
  exception-swallowing checks (:mod:`~tools.reprolint.callbacks`).

The engine (:mod:`tools.reprolint.engine`) walks the files and runs the
passes; :mod:`~tools.reprolint.ratchet` enforces the only-decreasing
per-rule budgets CI gates on.

Suppression: append ``# reprolint: disable=R1`` (comma-separate several
rules, or ``disable=all``) to the offending line, ideally with a reason::

    entry.payload = None  # reprolint: disable=R2 -- recycling, not in flight
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

from tools.reprolint.engine import (
    LintPathError,
    LintResult,
    LintStats,
    iter_python_files,
    run,
    suppressed_rules,
)
from tools.reprolint.rules import RULES, Finding, check_source

__all__ = [
    "RULES",
    "Finding",
    "check_source",
    "lint_source",
    "lint_paths",
    "run",
    "LintResult",
    "LintStats",
    "LintPathError",
    "iter_python_files",
    "fingerprint",
    "to_json",
]


def lint_source(source: str, posix_path: str) -> List[Finding]:
    """Per-file findings for one in-memory file, suppressions applied.

    Runs only the per-file rules (R1-R5); the whole-program rules need
    a project and are exercised through :func:`run`.
    """
    lines = source.splitlines()
    kept: List[Finding] = []
    for finding in check_source(source, posix_path):
        line_text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        suppressed = suppressed_rules(line_text)
        if finding.rule in suppressed or "all" in suppressed:
            continue
        kept.append(finding)
    return kept


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """All findings (per-file *and* project rules) under ``paths``,
    suppressions applied."""
    return run(paths).findings


def fingerprint(finding: Finding) -> str:
    """Stable id for a finding: path + rule + source text, no line number."""
    blob = f"{finding.path}::{finding.rule}::{finding.line_text.strip()}"
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def to_json(findings: Sequence[Finding]) -> str:
    payload: Dict[str, object] = {
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col + 1,
                "rule": f.rule,
                "message": f.message,
                "fingerprint": fingerprint(f),
            }
            for f in findings
        ],
        "count": len(findings),
        "rules": RULES,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
