"""Which ``src/repro`` functions does no driver run?

``python tools/reach.py`` runs every driver of ``drivers()`` once, in this process and at reduced scales, under a
global trace function that records each code object entered and returns ``None``: no line events, no C-call
events.  It then walks the AST of ``src/repro`` and prints every function whose code was never entered,
``path:qualname  (lines)``.  Stubs are not counted: methods of a ``Protocol``, ``@abstractmethod`` and
``@overload`` functions, and bodies that are only a docstring, ``pass``, ``...`` or ``raise
NotImplementedError``.

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
    "runs drivers the list runs one by one",
)
_REASON = re.compile("^(?:%s)(?:: .+)?$" % "|".join(re.escape(r).replace("N", r"\d+") for r in REASONS))

#: the perf workloads' seed and run length
PERF_SEED = 5
PERF_SECONDS = 1.0


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
    """``repro <argv>`` through ``repro.cli.main``, output discarded; ``{tmp}`` is the scratch directory and
    ``{ce}`` the counterexample the fuzz self-test wrote there."""

    def run(tmp: str) -> int:
        from repro.cli import main as repro_main

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


def _matrix(plan: str, scale: float, *argv: str) -> Driver:
    """``repro chaos`` on the built-in matrix ``plan`` with its 60 s timeline compressed by ``scale``."""
    label, run_chaos, expect = _repro("chaos", "--plan", f"{{tmp}}/{plan}.json", *argv)

    def run(tmp: str) -> int:
        from repro.experiments.chaos_unified import matrix_plans

        with open(os.path.join(tmp, f"{plan}.json"), "w", encoding="utf-8") as handle:
            json.dump(matrix_plans(scale)[plan], handle)
        return run_chaos(tmp)

    return label, run, expect


def drivers() -> List[Driver]:
    """The drivers, in run order.  First the rows of ``tools/results_drift.TABLE``: those named in ``reduced``
    run smaller (each still passes its own judgement), the others as recorded."""
    from perf import workloads
    from tools.results_drift import TABLE

    reduced = {
        "fig2.txt": _repro("fig2", "--scale", "0.05", "--resolvers", "10"),
        "fig4.txt": _repro("fig4", "--scale", "0.1", "--quick"),
        "fig8.txt": _repro("fig8", "--scale", "0.05"),
        "fig9.txt": _repro("fig9", "--scale", "0.05"),
        "fig10.txt": _repro("fig10", "--quick", "--ops", "5000"),
        "chaos_total_outage.txt": _matrix("total-outage", 0.15, "--seed", "42", "--metrics-out", os.devnull),
        "chaos_crash_ramp.txt": _matrix("crash-ramp", 0.15, "--seed", "42", "--metrics-out", os.devnull),
        "scale.txt": _repro("scale", "--clients", "10000", "--duration", "4", "--out", "{tmp}/scale.txt"),
    }
    return [
        *[reduced.get(name) or _repro(*[arg.replace("{out}", "{tmp}/" + name) for arg in argv])
          for name, argv, _ in TABLE],
        _repro("fig11", "--quick"),
        _repro("selfcheck", "--scale", "0.05"),
        _repro("obs", "--scale", "0.1", "--out-dir", "{tmp}/obs"),
        _repro("chaos", "--backend", "live", "--seed", "7", "--slo", "--min-recovery", "0.8",
               "--metrics-out", os.devnull),
        *[_repro("chaos", "--backend", backend, "--seed", "1", "--plan", plan, *extra, "--metrics-out", os.devnull)
          for backend in ("sim", "live")
          for plan, extra in (("examples/chaos_none.json", ()),
                              ("examples/chaos_loss30.json", ("--min-goodput", "0.7")))],
        _repro("fuzz", "--seed", "42", "--iterations", "20", "--quiet", "--time-budget", "600",
               "--corpus-dir", "{tmp}/fuzz-corpus"),
        _repro("fuzz", "--seed", "12", "--iterations", "1", "--inject-bug", "dangling-glueless",
               "--corpus-dir", "{tmp}/fuzz-selftest", "--quiet", expect=1),
        _repro("fuzz", "--replay", "{ce}"),
        _repro("fuzz", "--replay", "{ce}", "--replay-with-bug", expect=1),
        _repro("lint", "src/", "tests/", "tools/", "--ratchet", "--stats"),
        # obs on changes only the two simulator workloads; the other four do not read it
        *[_perf(workload, False) for workload in workloads.NAMES],
        _perf("sim_nx_dcc", True),
        _perf("sim_ff_vanilla", True),
    ]


def run_drivers(build: Callable[[], List[Driver]] = drivers) -> Tuple[Dict[int, CodeType], List[str]]:
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
            for label, run, expect in build():
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
