"""Which ``src/repro`` functions does no driver run?

``python tools/reach.py`` runs every row of the driver manifest ``tools/results_drift.TABLE`` (its ``reach`` argv,
at reduced scales) and every ``perf/workloads`` runner once, in this process, under a global trace function that
records each code object entered and returns ``None``: no line events, no C-call events.  It then walks the AST
of ``src/repro`` and prints every function whose code was never entered, ``path:qualname  (lines)``.  Stubs are
not counted: methods of a ``Protocol``, ``@abstractmethod`` and ``@overload`` functions, and bodies that are only
a docstring, ``pass``, ``...`` or ``raise NotImplementedError``.

Each unreached function must be listed in ``tools/reach_unreached.txt``, one ``path:qualname  # reason`` a line,
with a reason from ``REASONS``.  An unreached function that is not listed fails (exit 1); a listed one that was
reached is printed as ``STALE`` and does not fail.  A driver that exits with another code than it should also
fails (exit 2), since its reach would then say nothing.  This is the dynamic twin of reprolint's R10 (every
module reached) and R11 (every option set): it says which code in a reached module actually runs.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import glob
import io
import json
import os
import re
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = os.path.join(ROOT, "tools", "reach_unreached.txt")

#: the reasons a listed function may give (``N`` is a ROADMAP item number); a reason may add ``: <detail>``
REASONS = (
    "owned by ROADMAP item N",
    "input from outside the program",
    "asyncio/OS callback",
    "reached only by some fuzz inputs",
    "reached only when a runtime invariant breaks",
    "reached only by a run too small to judge",
    "implements an interface method another implementation runs",
    "kept by an R11 suppression",
)
_REASON = re.compile("^(?:%s)(?:: .+)?$" % "|".join(re.escape(r).replace("N", r"\d+") for r in REASONS))

#: the perf workloads' seed and run length, and how much the matrix plans' timeline is compressed
PERF_SEED = 5
PERF_SECONDS = 1.0
MATRIX_SCALE = 0.15
_MATRIX_PLAN = re.compile(r"\{tmp\}/([a-z-]+)\.json")


@dataclass(frozen=True)
class Function:
    path: str  # relative to the checkout, "src/repro/..."
    qualname: str
    first: int  # first line, decorators included: the code object's ``co_firstlineno``
    lines: int
    stub: bool

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.append(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _is_stub_body(body: List[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant) and (
                isinstance(statement.value.value, str) or statement.value.value is Ellipsis):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if getattr(raised, "id", "") == "NotImplementedError":
                continue
        return False
    return True


def _walk(path: str, node: ast.AST, prefix: str, protocol: bool, out: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            bases = [getattr(base, "attr", getattr(base, "id", "")) for base in child.bases]
            _walk(path, child, f"{prefix}{child.name}.", "Protocol" in bases, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
            stub = protocol or bool({"abstractmethod", "overload"} & set(_decorator_names(child))) or \
                _is_stub_body(child.body)
            out.append(Function(path, prefix + child.name, first, child.end_lineno - first + 1, stub))
            _walk(path, child, f"{prefix}{child.name}.<locals>.", False, out)
        else:
            _walk(path, child, prefix, protocol, out)


def functions(root: str = ROOT) -> List[Function]:
    """Every function and method defined in ``src/repro``, in file and line order."""
    found: List[Function] = []
    for path in sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"), recursive=True)):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        _walk(os.path.relpath(path, root).replace(os.sep, "/"), tree, "", False, found)
    return found


def read_listed(path: str = LISTED) -> List[Tuple[str, str]]:
    """``(path:qualname, reason)`` per entry of the unreached list, in file order."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, reason = line.partition("#")
                entries.append((key.strip(), reason.strip()))
    return entries


def reason_ok(reason: str) -> bool:
    return bool(_REASON.match(reason))


# -- drivers -------------------------------------------------------------------------------------------------

Driver = Tuple[str, Callable[[str], int], int]  # label, run(scratch dir) -> exit code, the exit code it must give


def _repro(*argv: str, expect: int = 0) -> Driver:
    """``repro <argv>`` through ``repro.cli.main``, output discarded; ``{tmp}`` is the scratch directory, ``{ce}``
    the fuzz self-test's counterexample there, ``{tmp}/<plan>.json`` the matrix plan compressed by ``MATRIX_SCALE``."""
    plans = [match.group(1) for match in map(_MATRIX_PLAN.fullmatch, argv) if match]

    def run(tmp: str) -> int:
        from repro.cli import main as repro_main

        for plan in plans:
            from repro.experiments.chaos_unified import matrix_plans  # as late as a driver would import it
            with open(os.path.join(tmp, f"{plan}.json"), "w", encoding="utf-8") as handle:
                json.dump(matrix_plans(MATRIX_SCALE)[plan], handle)
        found = sorted(glob.glob(os.path.join(tmp, "fuzz-selftest", "ce-*.json")))
        args = [arg.format(tmp=tmp, ce=found[0] if found else "") for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return repro_main(args)

    return "repro " + " ".join(argv), run, expect


def _perf(workload: str, obs: bool) -> Driver:
    """One ``perf/workloads`` runner at ``PERF_SECONDS``; exit 1 on a failed operation or a failed output
    check other than the scenario-shape checks, which are tuned to the benchmark's own run length."""

    def run(tmp: str) -> int:
        from perf import workloads

        harness = workloads.Harness(time.time(), obs=obs)
        try:
            outcome = workloads.RUNNERS[workload](PERF_SEED, workloads.params(workload, PERF_SECONDS), harness)
        finally:
            gc.unfreeze()  # the harness freezes what set-up built
        return int(outcome.failed > 0 or any("shape:" not in problem for problem in outcome.problems))

    return f"perf {workload}{' obs' if obs else ''}", run, 0


def drivers() -> List[Driver]:
    """The drivers, in run order: each row of ``results_drift.TABLE`` by its ``reach`` argv, then the perf runners."""
    from perf import workloads
    from tools.results_drift import TABLE

    rows: Dict[Tuple[str, ...], Driver] = {}  # by argv, so that a reach form two rows share runs once
    for row in TABLE:
        argv = tuple(arg.replace("{out}", "{tmp}/" + row.name) for arg in row.reach or row.argv)
        rows.setdefault(argv, _repro(*argv, expect=row.expect))
    # obs on changes only the simulator runner's two workloads; the other four do not read it
    return [*rows.values(), *[_perf(workload, False) for workload in workloads.NAMES],
            *[_perf(workload, True) for workload in workloads.NAMES if workloads.RUNNERS[workload] is workloads._sim]]


def run_drivers() -> Tuple[Dict[int, CodeType], List[str]]:
    """Build the driver list and run it under the tracer, imports included; the code objects entered (by id)
    and one problem line per driver that gave the wrong exit code."""
    seen: Dict[int, CodeType] = {}

    def enter(frame: FrameType, event: str, arg: object) -> None:
        seen[id(frame.f_code)] = frame.f_code  # hashing a code object costs ~10x its id

    problems = []
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, run, expect in drivers():
                started = time.perf_counter()
                try:
                    code = run(tmp)
                except SystemExit as stop:  # an argparse error
                    code = stop.code
                print(f"{time.perf_counter() - started:7.1f} s  {label}", flush=True)
                if code != expect:
                    problems.append(f"DRIVER {label}: exit {code}, expected {expect}")
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return seen, problems


def unreached(seen: Dict[int, CodeType], every: List[Function]) -> List[Function]:
    """The non-stub functions of ``every`` whose code ``seen`` does not hold."""
    entered = {(os.path.relpath(os.path.abspath(code.co_filename), ROOT).replace(os.sep, "/"),
                code.co_firstlineno, code.co_name) for code in seen.values()}
    return [fn for fn in every if not fn.stub and (fn.path, fn.first, fn.qualname.rpartition(".")[2]) not in entered]


def main() -> int:
    os.chdir(ROOT)  # drivers resolve examples/ and tools/ against the checkout
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    started = time.perf_counter()
    seen, problems = run_drivers()
    every = functions()
    missed = unreached(seen, every)
    listed = dict(read_listed())
    stubs = sum(fn.stub for fn in every)
    for fn in missed:
        print(f"{'' if fn.key in listed else 'UNLISTED '}{fn.key}  ({fn.lines} lines)")
    missed_keys = {fn.key for fn in missed}
    stale = [key for key in listed if key not in missed_keys]
    for key in stale:
        print(f"STALE {key}  (listed, but reached or gone)")
    unlisted = [fn for fn in missed if fn.key not in listed]
    for problem in problems:
        print(problem)
    print(f"reach: {len(every)} functions in src/repro, {stubs} stubs; {len(missed)} unreached "
          f"({sum(fn.lines for fn in missed)} lines), {len(unlisted)} of them unlisted; {len(stale)} stale; "
          f"{time.perf_counter() - started:.0f} s")
    return 2 if problems else int(bool(unlisted))


if __name__ == "__main__":
    sys.exit(main())
