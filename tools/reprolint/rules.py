"""The reprolint rule set: AST checks for simulation purity.

Every rule guards a property the reproduction's correctness argument
leans on (see ``docs/STATIC_ANALYSIS.md`` for the paper mapping):

- **R1  no-wallclock-or-global-rng** -- simulation code must take time
  from ``Sim.now`` and randomness from an injected ``random.Random``;
  wall-clock reads or the process-global ``random`` module make runs
  irreproducible.
- **R2  no-mutation-after-enqueue** -- an object handed to a
  ``schedule``/``send``/``enqueue``-family call is logically *in flight*;
  mutating it afterwards races the (virtual-time) consumer.
- **R3  no-set-iteration** -- iterating a set of objects without
  ``__hash__`` pinned to a deterministic value yields
  interpreter-dependent order; simulation code must iterate lists,
  dicts (insertion-ordered), or ``sorted(...)`` views.
- **R4  no-closure-callbacks** -- ``Sim.schedule`` callbacks must be
  bound methods or module-level functions; lambdas and nested functions
  capture variables by reference, so a mutated loop variable fires with
  the wrong value.
- **R5  no-print** -- library code reports through return values and
  stats objects; ``print`` belongs to the CLI and experiment drivers.

Rules R1-R4 apply only inside the simulation-pure packages
(``repro/{netsim,dcc,server,dnscore}``); R5 applies everywhere except
the CLI/experiment allowlist.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: packages in which R1-R4 are enforced (posix path fragments)
SIM_PURE_FRAGMENTS: Tuple[str, ...] = (
    "repro/netsim",
    "repro/dcc",
    "repro/server",
    "repro/dnscore",
    "repro/util",
    "repro/obs",
    "repro/fuzz",
    "repro/transport",
    "repro/chaos",
    "repro/fluid",
)

#: files excused from the *wall-clock* half of R1 only.  The asyncio UDP
#: backend is the one place the repo legitimately touches the wall clock
#: (loop.time()/time.time() anchor its epoch); its RNG discipline is NOT
#: exempt -- randomness must still come from seeded injected streams.
WALLCLOCK_EXEMPT_FRAGMENTS: Tuple[str, ...] = (
    "repro/transport/udp.py",
)

#: paths allowed to print (drivers and entry points)
PRINT_ALLOWED_FRAGMENTS: Tuple[str, ...] = (
    "repro/experiments",
    "repro/cli.py",
    "repro/__main__.py",
    "tests/",
    "tools/",
    "benchmarks/",
)

#: wall-clock reads banned in simulation code (module attr -> R1)
WALLCLOCK_TIME_ATTRS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time",
     "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns"}
)
WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: call names whose arguments are considered "handed off" (R2) --
#: scheduling, transmission, and queue-insertion surfaces of the repo
ENQUEUE_SINKS = frozenset(
    {"schedule", "schedule_at", "call_soon", "send", "send_query",
     "raw_send_query", "enqueue"}
)

#: schedule-family calls whose callback argument position R4 checks
SCHEDULE_CALLBACK_ARG = {"schedule": 1, "schedule_at": 1, "call_soon": 0}

#: paths where the order-sensitivity rule (R3) applies beyond the
#: sim-pure packages: tests and tools feed golden outputs and baselines,
#: so iteration order leaks into checked-in artifacts there too
ORDER_SCOPE_FRAGMENTS: Tuple[str, ...] = ("tests/", "tools/")

RULES: Dict[str, str] = {
    "R1": "wall-clock or process-global randomness in simulation code",
    "R2": "mutation of an object after it was enqueued/sent",
    "R3": "iteration over a set (non-deterministic order) in order-sensitive code",
    "R4": "Sim.schedule callback is a lambda or nested function (closure)",
    "R5": "print() outside the CLI/experiment drivers",
    "R6": "module import violates the layering contract, or an import cycle",
    "R7": "RNG-taint: module-global RNG, global-RNG draw, or unseeded Random()",
    "R8": "schedule callback resolves to a closure through alias/partial/import",
    "R9": "scheduled callback swallows exceptions (broad except, no raise)",
    "R10": "src/ module that no entry point (cli.COMMANDS, perf/) reaches",
    "R11": "*Config field that no driver (cli.COMMANDS, perf/) sets",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    line_text: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def is_sim_pure(posix_path: str) -> bool:
    """True when R1/R2/R4 (and the R7-R9 project rules) apply."""
    return any(fragment in posix_path for fragment in SIM_PURE_FRAGMENTS)


def is_order_sensitive(posix_path: str) -> bool:
    """True when the R3 set-iteration rule applies."""
    return is_sim_pure(posix_path) or any(
        fragment in posix_path for fragment in ORDER_SCOPE_FRAGMENTS
    )


def is_wallclock_exempt(posix_path: str) -> bool:
    """True when the R1 wall-clock checks (not the RNG ones) are waived."""
    return any(fragment in posix_path for fragment in WALLCLOCK_EXEMPT_FRAGMENTS)


# back-compat aliases (pre-R6 API)
_is_sim_pure = is_sim_pure


def _is_print_allowed(posix_path: str) -> bool:
    return any(fragment in posix_path for fragment in PRINT_ALLOWED_FRAGMENTS)


def _call_name(func: ast.expr) -> Optional[str]:
    """The terminal name of a call target (``a.b.c()`` -> ``"c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_name(node: ast.expr) -> Optional[str]:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_in(node: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _FileChecker(ast.NodeVisitor):
    """Single-pass checker; accumulates findings for one source file."""

    def __init__(self, posix_path: str, source_lines: Sequence[str]) -> None:
        self.path = posix_path
        self.lines = source_lines
        self.sim_pure = is_sim_pure(posix_path)
        self.wallclock_exempt = is_wallclock_exempt(posix_path)
        self.order_sensitive = is_order_sensitive(posix_path)
        self.print_allowed = _is_print_allowed(posix_path)
        self.findings: List[Finding] = []
        #: names bound by ``from time import time``-style imports
        self._tainted_imports: Dict[str, str] = {}
        #: per-function state for R2/R4 (stack for nested defs)
        self._scope_stack: List[_ScopeState] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1].rstrip() if 0 < line <= len(self.lines) else ""
        self.findings.append(Finding(self.path, line, col, rule, message, text))

    # ------------------------------------------------------------------
    # imports feeding R1
    # ------------------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.sim_pure and node.module in ("time", "datetime", "random"):
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "time" and alias.name in WALLCLOCK_TIME_ATTRS:
                    if not self.wallclock_exempt:
                        self._tainted_imports[bound] = f"time.{alias.name}"
                elif node.module == "datetime" and alias.name in ("datetime", "date"):
                    pass  # class import; only .now()/.today() calls are flagged
                elif node.module == "random" and alias.name != "Random":
                    self._tainted_imports[bound] = f"random.{alias.name}"
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # function scopes (R2 / R4 bookkeeping)
    # ------------------------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        nested = {
            child.name
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        self._scope_stack.append(_ScopeState(nested_defs=nested))
        self.generic_visit(node)
        self._scope_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @property
    def _scope(self) -> Optional["_ScopeState"]:
        return self._scope_stack[-1] if self._scope_stack else None

    def visit_Assign(self, node: ast.Assign) -> None:
        scope = self._scope
        if scope is not None:
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Lambda):
                    scope.lambda_names.add(target.id)
                self._check_r2_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._scope is not None:
            self._check_r2_write(node.target)
        self.generic_visit(node)

    def _check_r2_write(self, target: ast.expr) -> None:
        if not self.sim_pure:
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        base = _base_name(target)
        scope = self._scope
        if base is None or scope is None:
            return
        if base in scope.enqueued_names:
            self._add(
                target,
                "R2",
                f"'{base}' was passed to an enqueue/send-family call above; "
                "mutating it afterwards races the consumer",
            )

    # ------------------------------------------------------------------
    # calls: R1, R2 sink collection, R4, R5
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)

        if self.sim_pure:
            self._check_r1(node, name)
            if name in ENQUEUE_SINKS:
                self._collect_enqueued(node)
            if name in SCHEDULE_CALLBACK_ARG:
                self._check_r4(node, name)

        if name == "print" and isinstance(node.func, ast.Name) and not self.print_allowed:
            self._add(node, "R5", "print() in library code; report via return values/stats")

        self.generic_visit(node)

    def _check_r1(self, node: ast.Call, name: Optional[str]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = func.value.id
            if module == "time" and func.attr in WALLCLOCK_TIME_ATTRS:
                if not self.wallclock_exempt:
                    self._add(node, "R1",
                              f"wall-clock read time.{func.attr}(); use Sim.now")
                return
            if module == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        self._add(
                            node, "R1",
                            "unseeded random.Random(); seed it (e.g. from Sim.rng)",
                        )
                else:
                    self._add(
                        node, "R1",
                        f"process-global random.{func.attr}(); draw from an "
                        "injected random.Random stream",
                    )
                return
        # datetime.now() / datetime.datetime.now() / date.today()
        if isinstance(func, ast.Attribute) and func.attr in WALLCLOCK_DATETIME_ATTRS:
            root = _base_name(func.value)
            if root in ("datetime", "date"):
                if not self.wallclock_exempt:
                    self._add(node, "R1",
                              f"wall-clock read {root}.{func.attr}(); use Sim.now")
                return
        if isinstance(func, ast.Name) and func.id in self._tainted_imports:
            origin = self._tainted_imports[func.id]
            self._add(node, "R1", f"call to {origin} (imported as '{func.id}'); use Sim.now "
                                  "or an injected random.Random")

    def _collect_enqueued(self, node: ast.Call) -> None:
        scope = self._scope
        if scope is None:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for candidate in _names_in(arg):
                if candidate not in ("self", "cls"):
                    scope.enqueued_names.add(candidate)

    def _check_r4(self, node: ast.Call, name: str) -> None:
        index = SCHEDULE_CALLBACK_ARG[name]
        if index >= len(node.args):
            return
        callback = node.args[index]
        if isinstance(callback, ast.Lambda):
            self._add(node, "R4", f"{name}() callback is a lambda; use a bound method "
                                  "or module-level function")
            return
        scope = self._scope
        if isinstance(callback, ast.Name) and scope is not None:
            if callback.id in scope.nested_defs:
                self._add(
                    node, "R4",
                    f"{name}() callback '{callback.id}' is a nested function "
                    "(closure); use a bound method or module-level function",
                )
            elif callback.id in scope.lambda_names:
                self._add(
                    node, "R4",
                    f"{name}() callback '{callback.id}' is bound to a lambda; "
                    "use a bound method or module-level function",
                )

    # ------------------------------------------------------------------
    # iteration: R3
    # ------------------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_r3(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_r3(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_r3(self, iterable: ast.expr) -> None:
        if not self.order_sensitive:
            return
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._add(iterable, "R3", "iteration over a set literal/comprehension; "
                                      "order is not deterministic -- sort or use a list")
            return
        if isinstance(iterable, ast.Call):
            name = _call_name(iterable.func)
            if name in ("set", "frozenset") and isinstance(iterable.func, ast.Name):
                self._add(iterable, "R3", f"iteration over {name}(...); order is not "
                                          "deterministic -- wrap in sorted(...)")


class _ScopeState:
    """Per-function bookkeeping for the sequential R2/R4 checks."""

    __slots__ = ("enqueued_names", "nested_defs", "lambda_names")

    def __init__(self, nested_defs: Set[str]) -> None:
        #: names observed as arguments of an enqueue/send-family call
        self.enqueued_names: Set[str] = set()
        self.nested_defs = nested_defs
        self.lambda_names: Set[str] = set()


def check_tree(tree: ast.AST, posix_path: str, lines: Sequence[str]) -> List[Finding]:
    """All raw per-file findings for a parsed module (no suppressions)."""
    checker = _FileChecker(posix_path, lines)
    checker.visit(tree)
    return sorted(checker.findings, key=lambda f: (f.line, f.col, f.rule))


def check_source(source: str, posix_path: str) -> List[Finding]:
    """All raw findings for one file (suppressions NOT yet applied)."""
    tree = ast.parse(source, filename=posix_path)
    return check_tree(tree, posix_path, source.splitlines())
