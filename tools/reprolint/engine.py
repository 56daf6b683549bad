"""The multi-pass lint engine: serial walk, per-file rules, and the
whole-program R6-R11 passes.

Pipeline::

    collect files -> per-file analysis (parse once, run R1-R5 and fact
      extraction) -> ProjectIndex -> R6 layering, R7 RNG flow,
      R8/R9 callbacks, R10 reachability, R11 options -> per-line
      suppressions ->
      sorted findings

The project passes operate on the extracted facts, not on ASTs.  Files
are analysed serially: ``ast.parse`` from a thread pool raised
``SystemError`` now and then on CPython 3.11 and, under the GIL, saved
no time (docs/STATIC_ANALYSIS.md has the numbers).
"""

from __future__ import annotations

import ast
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from tools.reprolint import callbacks as callbacks_pass
from tools.reprolint import layering as layering_pass
from tools.reprolint import rngflow as rngflow_pass
from tools.reprolint.project import ModuleFacts, ProjectIndex, extract_facts
from tools.reprolint.rules import Finding, check_tree

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


class LintPathError(Exception):
    """A requested lint path does not exist."""


def suppressed_rules(line_text: str) -> FrozenSet[str]:
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(token.strip() for token in match.group(1).split(",") if token.strip())


def iter_python_files(paths: Sequence[str], strict: bool = True) -> Iterable[str]:
    """Every ``.py`` file under ``paths``, sorted walk order.

    With ``strict`` (the default), a nonexistent path raises
    :class:`LintPathError` instead of being silently skipped.
    """
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        if not os.path.isdir(path):
            if strict:
                raise LintPathError(
                    f"path does not exist: {path!r} (nothing to lint)")
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__" and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class LintStats:
    files: int = 0
    elapsed: float = 0.0
    file_pass_elapsed: float = 0.0
    project_pass_elapsed: float = 0.0
    suppressed: int = 0

    def render(self) -> str:
        return (
            f"reprolint stats: {self.files} file(s), "
            f"{self.elapsed * 1000.0:.0f} ms total "
            f"({self.file_pass_elapsed * 1000.0:.0f} ms file pass, "
            f"{self.project_pass_elapsed * 1000.0:.0f} ms project pass), "
            f"{self.suppressed} suppressed"
        )


@dataclass
class LintResult:
    findings: List[Finding]
    stats: LintStats
    sources: Dict[str, List[str]] = field(default_factory=dict)
    index: Optional[ProjectIndex] = None


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def _analyze_one(filepath: str) -> Tuple[List[Finding], ModuleFacts, List[str]]:
    """One file's R1-R5 findings, its facts (``facts.path`` is the posix
    path the findings carry) and its source lines."""
    posix_path = filepath.replace(os.sep, "/")
    with open(filepath, "rb") as handle:
        source = handle.read().decode("utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=posix_path)
    findings = check_tree(tree, posix_path, lines)
    return findings, extract_facts(tree, posix_path), lines


def run(
    paths: Sequence[str],
    project_rules: bool = True,
    contract: Optional[Dict[str, FrozenSet[str]]] = None,
    apply_suppressions: bool = True,
) -> LintResult:
    """Lint ``paths`` end to end; see the module docstring for the
    pipeline."""
    t0 = time.perf_counter()
    files = list(iter_python_files(paths))

    findings: List[Finding] = []
    all_facts: List[ModuleFacts] = []
    sources: Dict[str, List[str]] = {}
    for filepath in files:
        file_findings, facts, lines = _analyze_one(filepath)
        findings.extend(file_findings)
        all_facts.append(facts)
        sources[facts.path] = lines
    all_facts.sort(key=lambda facts: facts.path)
    t1 = time.perf_counter()

    index: Optional[ProjectIndex] = None
    if project_rules:
        index = ProjectIndex(all_facts)
        layer_contract = contract if contract is not None else layering_pass.DEFAULT_CONTRACT
        findings.extend(layering_pass.check_layering(index, sources, layer_contract))
        findings.extend(rngflow_pass.check_rng_flow(index, sources))
        findings.extend(callbacks_pass.check_callbacks(index, sources))
        findings.extend(layering_pass.check_unreached(index, sources))
        findings.extend(layering_pass.check_unset_options(index, sources))
    t2 = time.perf_counter()

    suppressed = 0
    if apply_suppressions:
        kept: List[Finding] = []
        for finding in findings:
            lines = sources.get(finding.path, [])
            line_text = (lines[finding.line - 1]
                         if 0 < finding.line <= len(lines) else finding.line_text)
            rules_off = suppressed_rules(line_text)
            if finding.rule in rules_off or "all" in rules_off:
                suppressed += 1
                continue
            kept.append(finding)
        findings = kept
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    stats = LintStats(
        files=len(files),
        elapsed=time.perf_counter() - t0,
        file_pass_elapsed=t1 - t0,
        project_pass_elapsed=t2 - t1,
        suppressed=suppressed,
    )
    return LintResult(findings=findings, stats=stats, sources=sources, index=index)
