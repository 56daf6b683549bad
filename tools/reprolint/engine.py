"""The multi-pass lint engine: serial walk, content-hash cache,
per-file rules, and the whole-program R6-R9 passes.

Pipeline::

    collect files -> read + sha256 -> per-file analysis
      (cache hit: reuse findings+facts; miss: parse once, run R1-R5 and
       fact extraction) -> ProjectIndex -> R6 layering, R7 RNG flow,
      R8/R9 callbacks -> per-line suppressions -> sorted findings

The cache (JSON, keyed by file content hash and the analysis version)
stores both the per-file findings and the extracted facts, so a warm
run never parses an unchanged file -- the project passes always run,
but they operate on facts, not ASTs, and are cheap.  Sources are read
regardless (hashing needs the bytes), which is what lets suppression
comments and finding snippets work identically hot and cold.

Files are analysed serially: ``ast.parse`` from a thread pool raised
``SystemError`` now and then on CPython 3.11 and, under the GIL, saved
no time (docs/STATIC_ANALYSIS.md has the numbers).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from tools.reprolint import callbacks as callbacks_pass
from tools.reprolint import layering as layering_pass
from tools.reprolint import rngflow as rngflow_pass
from tools.reprolint.project import (
    FACTS_VERSION,
    ModuleFacts,
    ProjectIndex,
    extract_facts,
)
from tools.reprolint.rules import Finding, check_tree

#: bump when rule behaviour changes so stale caches self-invalidate
ANALYSIS_VERSION = 2

#: full cache key version
CACHE_VERSION = f"{ANALYSIS_VERSION}.{FACTS_VERSION}"

#: default cache location, relative to the current working directory
DEFAULT_CACHE = ".reprolint-cache.json"

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
class FileAnalysis:
    """Per-file product, cacheable."""

    posix_path: str
    sha: str
    findings: List[Finding]
    facts: ModuleFacts
    from_cache: bool = False

    def to_cache(self) -> Dict[str, object]:
        return {
            "sha": self.sha,
            "findings": [
                {"path": f.path, "line": f.line, "col": f.col, "rule": f.rule,
                 "message": f.message, "line_text": f.line_text}
                for f in self.findings
            ],
            "facts": self.facts.to_dict(),
        }

    @staticmethod
    def from_cache_entry(posix_path: str, entry: Dict[str, object]) -> "FileAnalysis":
        findings = [
            Finding(d["path"], d["line"], d["col"], d["rule"], d["message"],
                    d.get("line_text", ""))
            for d in entry["findings"]  # type: ignore[union-attr]
        ]
        return FileAnalysis(
            posix_path, str(entry["sha"]), findings,
            ModuleFacts.from_dict(entry["facts"]),  # type: ignore[arg-type]
            from_cache=True,
        )


@dataclass
class LintStats:
    files: int = 0
    cache_hits: int = 0
    elapsed: float = 0.0
    file_pass_elapsed: float = 0.0
    project_pass_elapsed: float = 0.0
    suppressed: int = 0

    def render(self) -> str:
        return (
            f"reprolint stats: {self.files} file(s), {self.cache_hits} cached, "
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
# cache
# ----------------------------------------------------------------------

def _load_cache(cache_path: Optional[str]) -> Dict[str, Dict[str, object]]:
    if cache_path is None or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if payload.get("version") != CACHE_VERSION:
        return {}
    files = payload.get("files")
    return files if isinstance(files, dict) else {}


def _write_cache(cache_path: Optional[str], analyses: Sequence[FileAnalysis]) -> None:
    if cache_path is None:
        return
    payload = {
        "version": CACHE_VERSION,
        "files": {a.posix_path: a.to_cache() for a in analyses},
    }
    tmp = f"{cache_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, cache_path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def _analyze_one(
    filepath: str, cached: Optional[Dict[str, object]]
) -> Tuple[FileAnalysis, List[str]]:
    posix_path = filepath.replace(os.sep, "/")
    with open(filepath, "rb") as handle:
        raw = handle.read()
    sha = hashlib.sha256(raw).hexdigest()
    source = raw.decode("utf-8")
    lines = source.splitlines()
    if cached is not None and cached.get("sha") == sha:
        return FileAnalysis.from_cache_entry(posix_path, cached), lines
    tree = ast.parse(source, filename=posix_path)
    findings = check_tree(tree, posix_path, lines)
    facts = extract_facts(tree, posix_path)
    return FileAnalysis(posix_path, sha, findings, facts), lines


def run(
    paths: Sequence[str],
    cache_path: Optional[str] = DEFAULT_CACHE,
    project_rules: bool = True,
    contract: Optional[Dict[str, FrozenSet[str]]] = None,
    apply_suppressions: bool = True,
) -> LintResult:
    """Lint ``paths`` end to end; see the module docstring for the
    pipeline.  ``cache_path=None`` disables caching entirely."""
    t0 = time.perf_counter()
    files = list(iter_python_files(paths))
    cache = _load_cache(cache_path)

    analyses: List[FileAnalysis] = []
    sources: Dict[str, List[str]] = {}
    for filepath in files:
        analysis, lines = _analyze_one(filepath, cache.get(filepath.replace(os.sep, "/")))
        analyses.append(analysis)
        sources[analysis.posix_path] = lines
    analyses.sort(key=lambda a: a.posix_path)
    t1 = time.perf_counter()

    findings: List[Finding] = []
    for analysis in analyses:
        findings.extend(analysis.findings)

    index: Optional[ProjectIndex] = None
    if project_rules:
        index = ProjectIndex([a.facts for a in analyses])
        layer_contract = contract if contract is not None else layering_pass.DEFAULT_CONTRACT
        findings.extend(layering_pass.check_layering(index, sources, layer_contract))
        findings.extend(rngflow_pass.check_rng_flow(index, sources))
        findings.extend(callbacks_pass.check_callbacks(index, sources))
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

    _write_cache(cache_path, analyses)

    stats = LintStats(
        files=len(files),
        cache_hits=sum(1 for a in analyses if a.from_cache),
        elapsed=time.perf_counter() - t0,
        file_pass_elapsed=t1 - t0,
        project_pass_elapsed=t2 - t1,
        suppressed=suppressed,
    )
    return LintResult(findings=findings, stats=stats, sources=sources, index=index)
