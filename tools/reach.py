"""Which ``src/repro`` functions, and which lines of the functions they do run, does no driver run?

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

``python tools/reach.py --lines`` runs the same drivers under a tracer that also returns a line tracer for frames
of ``src/repro`` code, and checks both lists.  For each reached function, every line start after its ``def`` line
(what ``dis.findlinestarts``, i.e. ``co_lines()``, gives for its code and the lambdas and comprehensions inside
it) that never ran must be listed in ``tools/reach_lines.txt``, one ``path:qualname  +a[-b][,+c...]  # reason``
a line.  An offset counts from the function's first line (``Function.first``), so an edit elsewhere in the file
leaves the entry true; ``+a-b`` stands for every line start from ``+a`` to ``+b``.  The reasons are ``REASONS``.
Line tables are the interpreter's: the list is made under CPython 3.11 or later.  The mode takes about 1.6 times
as long as the call tracer alone and is run by hand.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
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
from typing import Callable, Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = os.path.join(ROOT, "tools", "reach_unreached.txt")
LISTED_LINES = os.path.join(ROOT, "tools", "reach_lines.txt")
SRC = os.path.join(ROOT, "src", "repro") + os.sep

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
_SPAN = re.compile(r"\+(\d+)(?:-(\d+))?")

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
    head: int  # the ``def`` line
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
            out.append(Function(path, prefix + child.name, first, child.lineno, child.end_lineno - first + 1, stub))
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


def read_listed_lines(path: str = LISTED_LINES) -> List[Tuple[str, List[Tuple[int, int]], str]]:
    """``(path:qualname, [(a, b), ...], reason)`` per entry of the line list, in file order; ``+a`` is ``(a, a)``."""
    entries = []
    for entry, reason in read_listed(path):
        key, spans = entry.split()
        parsed = [_SPAN.fullmatch(span) for span in spans.split(",")]
        if not all(parsed):
            raise ValueError(f"{path}: {entry!r} is not 'path:qualname  +a[-b][,+c...]'")
        entries.append((key, [(int(m.group(1)), int(m.group(2) or m.group(1))) for m in parsed], reason))
    return entries


def reason_ok(reason: str) -> bool:
    return bool(_REASON.match(reason))


def line_starts(root: str = ROOT) -> Dict[str, List[int]]:
    """Per function of ``src/repro`` (``Function.key``): its line starts after its ``def`` line as sorted offsets
    from its first line; those of its own code object and of the lambdas and comprehensions inside it, as the
    running interpreter compiles them."""
    by_path: Dict[str, Dict[Tuple[int, str], Function]] = {}
    for fn in functions(root):
        by_path.setdefault(fn.path, {})[(fn.first, fn.qualname.rpartition(".")[2])] = fn
    starts: Dict[str, Set[int]] = {}
    for path, fns in by_path.items():
        with open(os.path.join(root, path), "r", encoding="utf-8") as handle:
            _collect_starts(compile(handle.read(), path, "exec", dont_inherit=True), None, fns, starts)
    return {key: sorted(lines) for key, lines in starts.items()}


def _collect_starts(code: CodeType, owner: Optional[Function], fns: Dict[Tuple[int, str], Function],
                    out: Dict[str, Set[int]]) -> None:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            # a def is its own owner, a lambda or comprehension belongs to its enclosing def, a class body to none
            inner = fns.get((const.co_firstlineno, const.co_name)) or (owner if const.co_name.startswith("<") else None)
            if inner is not None:
                lines = {line for _, line in dis.findlinestarts(const) if line is not None and line > inner.head}
                out.setdefault(inner.key, set()).update(line - inner.first for line in lines)
            _collect_starts(const, inner, fns, out)


def spans(offsets: List[int], starts: List[int]) -> str:
    """``offsets`` (sorted, each one of ``starts``) as ``+a[-b][,+c...]``: a run of consecutive starts is one span."""
    position = {offset: index for index, offset in enumerate(starts)}
    runs: List[List[int]] = []
    for offset in offsets:
        if runs and position[offset] == position[runs[-1][1]] + 1:
            runs[-1][1] = offset
        else:
            runs.append([offset, offset])
    return ",".join(f"+{a}" if a == b else f"+{a}-{b}" for a, b in runs)


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


def run_drivers(lines: bool = False) -> Tuple[Dict[int, CodeType], Dict[str, Set[int]], List[str]]:
    """Build the driver list and run it under the tracer, imports included; the code objects entered (by id), the
    lines that ran in ``src/repro`` by path (only with ``lines``), and one problem line per driver that gave the
    wrong exit code."""
    seen: Dict[int, CodeType] = {}
    ran: Dict[str, Set[int]] = {}
    tracers: Dict[int, Optional[Callable]] = {}  # by code id: the line tracer of a src/repro code object, else None

    def enter(frame: FrameType, event: str, arg: object) -> None:
        seen[id(frame.f_code)] = frame.f_code  # hashing a code object costs ~10x its id

    def enter_lines(frame: FrameType, event: str, arg: object) -> Optional[Callable]:
        code = frame.f_code
        try:
            return tracers[id(code)]
        except KeyError:
            seen[id(code)] = code
            tracer = tracers[id(code)] = _line_tracer(ran, code) if code.co_filename.startswith(SRC) else None
            return tracer

    problems = []
    tracer = enter_lines if lines else enter
    threading.settrace(tracer)
    sys.settrace(tracer)
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
    return seen, {os.path.relpath(path, ROOT).replace(os.sep, "/"): hits for path, hits in ran.items()}, problems


def _line_tracer(ran: Dict[str, Set[int]], code: CodeType) -> Callable:
    hit = ran.setdefault(code.co_filename, set()).add

    def line(frame: FrameType, event: str, arg: object) -> Callable:
        hit(frame.f_lineno)  # a "return" or "exception" event is on a line that ran
        return line

    return line


def unreached(seen: Dict[int, CodeType], every: List[Function]) -> List[Function]:
    """The non-stub functions of ``every`` whose code ``seen`` does not hold."""
    entered = {(os.path.relpath(os.path.abspath(code.co_filename), ROOT).replace(os.sep, "/"),
                code.co_firstlineno, code.co_name) for code in seen.values()}
    return [fn for fn in every if not fn.stub and (fn.path, fn.first, fn.qualname.rpartition(".")[2]) not in entered]


def check_lines(every: List[Function], missed: List[Function], ran: Dict[str, Set[int]]) -> int:
    """Print the line check of the functions of ``every`` not in ``missed``: line starts that never ran and are
    not listed, listed ones that ran, and the count by file; return the number not listed."""
    starts = line_starts()
    missed_keys = {fn.key for fn in missed}
    reached = [fn for fn in every if not fn.stub and fn.key not in missed_keys]
    never: Dict[str, List[int]] = {}
    for fn in reached:
        hit = ran.get(fn.path, set())
        lines = [offset for offset in starts.get(fn.key, []) if fn.first + offset not in hit]
        if lines:
            never[fn.key] = lines
    listed: Dict[str, Set[int]] = {}
    for key, entry_spans, _ in read_listed_lines():
        listed.setdefault(key, set()).update(
            offset for offset in starts.get(key, []) if any(a <= offset <= b for a, b in entry_spans))
    unlisted = 0
    for key, lines in never.items():
        left = [offset for offset in lines if offset not in listed.get(key, ())]
        unlisted += len(left)
        if left:
            print(f"UNLISTED {key}  {spans(left, starts[key])}")
    stale = 0
    for key, lines in sorted(listed.items()):
        ran_anyway = sorted(lines - set(never.get(key, ())))
        stale += len(ran_anyway) + (not lines)
        if ran_anyway or not lines:
            print(f"STALE {key}  {spans(ran_anyway, starts.get(key, []))}  (listed, but ran or gone)")
    by_path: Dict[str, List[int]] = {}
    for fn in reached:
        counts = by_path.setdefault(fn.path, [0, 0])
        counts[0] += len(never.get(fn.key, ()))
        counts[1] += len(starts.get(fn.key, ()))
    for path, (count, total) in sorted(by_path.items(), key=lambda item: (-item[1][0], item[0])):
        if count:
            print(f"{count:5d} of {total:5d}  {path}")
    print(f"lines: {sum(total for _, total in by_path.values())} line starts in {len(reached)} reached functions; "
          f"{sum(map(len, never.values()))} never ran, {unlisted} of them unlisted; {stale} stale")
    return unlisted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="which src/repro functions (and lines) does no driver run?")
    parser.add_argument("--lines", action="store_true", help="also check every line start of a reached function")
    lines = parser.parse_args(argv).lines
    os.chdir(ROOT)  # drivers resolve examples/ and tools/ against the checkout
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    started = time.perf_counter()
    seen, ran, problems = run_drivers(lines)
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
    unlisted_lines = check_lines(every, missed, ran) if lines else 0
    for problem in problems:
        print(problem)
    print(f"reach: {len(every)} functions in src/repro, {stubs} stubs; {len(missed)} unreached "
          f"({sum(fn.lines for fn in missed)} lines), {len(unlisted)} of them unlisted; {len(stale)} stale; "
          f"{time.perf_counter() - started:.0f} s")
    return 2 if problems else int(bool(unlisted) or bool(unlisted_lines))


if __name__ == "__main__":
    sys.exit(main())
