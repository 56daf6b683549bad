"""Whole-program facts: module naming, per-file fact extraction, and the
project index the R6-R11 passes run over.

The per-file pass (:class:`extract_facts`) walks one AST and records
*facts* -- imports (with ``TYPE_CHECKING`` provenance), function
signatures, RNG draw sites, schedule-callback references, and broad
exception handlers.  The project passes
(:mod:`tools.reprolint.layering`, :mod:`tools.reprolint.rngflow`,
:mod:`tools.reprolint.callbacks`) then resolve them across files
through :class:`ProjectIndex` without touching an AST again.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.reprolint.rules import SCHEDULE_CALLBACK_ARG

#: Random methods that consume entropy from the stream
RNG_DRAW_METHODS = frozenset(
    {"random", "uniform", "randint", "randrange", "choice", "choices",
     "shuffle", "sample", "gauss", "normalvariate", "expovariate",
     "betavariate", "gammavariate", "lognormvariate", "paretovariate",
     "weibullvariate", "vonmisesvariate", "triangular", "getrandbits",
     "randbytes", "binomialvariate"}
)


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------

#: directory anchors that start a module path (checked in order)
_ANCHORS = ("tests", "tools", "benchmarks")


def module_name_for_path(posix_path: str) -> str:
    """Dotted module name for a source path.

    ``src/`` layouts are rooted after the last ``src`` component
    (``src/repro/dcc/mopifq.py`` -> ``repro.dcc.mopifq``); ``tests/``,
    ``tools/`` and ``benchmarks/`` keep their anchor as the package
    root.  Works on absolute paths too, so synthetic trees
    under a tmp dir resolve the same way as the checked-in tree.
    """
    parts = [p for p in posix_path.split("/") if p]
    rel: Optional[List[str]] = None
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        rel = parts[idx + 1:]
    else:
        for anchor in _ANCHORS:
            if anchor in parts:
                rel = parts[parts.index(anchor):]
                break
    if not rel:
        rel = [parts[-1]]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) if rel else posix_path


def package_of(module: str) -> str:
    """The package a module lives in (``repro.dcc.mopifq`` -> ``repro.dcc``)."""
    head, _, _ = module.rpartition(".")
    return head


# ----------------------------------------------------------------------
# facts
# ----------------------------------------------------------------------

@dataclass
class ImportFact:
    """One import statement edge, pre-resolution."""

    module: str                 # absolute module path imported from
    names: List[str]            # bound names ([] for plain `import m`)
    line: int
    col: int
    type_only: bool             # inside an `if TYPE_CHECKING:` block


@dataclass
class DrawFact:
    """One RNG draw site: ``<receiver>.random()`` etc."""

    line: int
    col: int
    method: str
    #: receiver descriptor -- "param:<p>", "self", "self_attr:<a>",
    #: "seeded_local", "sim_rng", "call:<name>", "global:<g>", "bound"
    receiver: str


@dataclass
class ExceptFact:
    """A bare/broad exception handler."""

    line: int
    col: int
    kind: str                   # "bare" | "Exception" | "BaseException"
    reraises: bool              # handler body contains a `raise`


@dataclass
class CallbackRef:
    """One schedule-family call site and its (symbolic) callback target."""

    line: int
    col: int
    call: str                   # schedule | schedule_at | call_soon
    #: target descriptor -- "lambda", "nested:<n>", "bound:self.<m>",
    #: "bound:<expr>.<m>", "name:<n>", "partial:<inner>", "opaque"
    target: str


@dataclass
class FunctionFact:
    """Facts about one function or method."""

    qualname: str               # "f" or "Cls.m" (nested: "f.<locals>.g")
    line: int
    params: List[str]
    owner_class: str            # enclosing class name, "" for free functions
    draws: List[DrawFact] = field(default_factory=list)
    #: descriptor of the returned value when the function returns an RNG
    #: source it knows about ("param:<p>", "sim_rng", "seeded_local",
    #: "unseeded", "nameref:<n>" -- the latter resolved at project time)
    returns_rng: str = ""
    broad_excepts: List[ExceptFact] = field(default_factory=list)
    callback_refs: List[CallbackRef] = field(default_factory=list)
    #: (line, col) of unseeded random.Random() constructions
    unseeded: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the project passes need to know about one file."""

    path: str                   # posix path as linted
    module: str                 # dotted module name
    imports: List[ImportFact] = field(default_factory=list)
    functions: List[FunctionFact] = field(default_factory=list)
    #: module-level `NAME = random.Random(...)` bindings: (name, line, col)
    rng_globals: List[Tuple[str, int, int]] = field(default_factory=list)
    #: module-level `NAME = lambda ...` bindings
    lambda_globals: List[str] = field(default_factory=list)
    #: module-level def/class names (things legal to schedule)
    defs: List[str] = field(default_factory=list)
    #: class name -> method names
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: ``*Config`` class name -> its annotated, non-``ClassVar`` fields:
    #: (name, line, col)
    config_fields: Dict[str, List[Tuple[str, int, int]]] = field(default_factory=dict)
    #: calls to a ``*Config`` name: (callee, positional count, keywords)
    config_calls: List[Tuple[str, int, Tuple[str, ...]]] = field(default_factory=list)
    #: keywords of ``replace(...)`` calls and ``<...>config.<attr> = ...``
    #: targets: option names written without naming their class
    option_writes: Set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            and isinstance(test.value, ast.Name) and test.value.id == "typing")


def _resolve_relative(module: str, node_module: Optional[str], level: int) -> str:
    """Absolute module path for a level-``level`` relative import."""
    base = module.split(".")
    # the module's own package: drop the filename component
    if len(base) > 1:
        base = base[:-1]
    # each additional level walks one package up
    for _ in range(level - 1):
        if base:
            base = base[:-1]
    if node_module:
        base = base + node_module.split(".")
    return ".".join(base)


class _FactVisitor(ast.NodeVisitor):
    """One pass over a module AST collecting :class:`ModuleFacts`."""

    def __init__(self, posix_path: str, module: str) -> None:
        self.facts = ModuleFacts(path=posix_path, module=module)
        self._type_checking_depth = 0
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionFact] = []
        #: per-function: local name -> value descriptor
        self._locals_stack: List[Dict[str, str]] = []

    # -- imports -------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.append(ImportFact(
                alias.name, [], node.lineno, node.col_offset,
                self._type_checking_depth > 0,
            ))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            target = _resolve_relative(self.facts.module, node.module, node.level)
        else:
            target = node.module or ""
        if target:
            self.facts.imports.append(ImportFact(
                target, [a.name for a in node.names], node.lineno,
                node.col_offset, self._type_checking_depth > 0,
            ))
        self.generic_visit(node)

    # -- defs ----------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._func_stack and not self._class_stack:
            self.facts.defs.append(node.name)
            self.facts.classes[node.name] = [
                child.name for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            if node.name.endswith("Config"):
                self.facts.config_fields[node.name] = [
                    (child.target.id, child.lineno, child.col_offset)
                    for child in node.body
                    if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name)
                    and "ClassVar" not in ast.unparse(child.annotation)
                ]
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        owner = self._class_stack[-1] if self._class_stack else ""
        if self._func_stack:
            qual = f"{self._func_stack[-1].qualname}.<locals>.{name}"
        elif owner:
            qual = f"{owner}.{name}"
        else:
            qual = name
            self.facts.defs.append(name)
        args = node.args  # type: ignore[attr-defined]
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        if self._func_stack and self._locals_stack:
            # register the nested def in the parent scope so aliases like
            # `cb = inner; sim.schedule(t, cb)` resolve to the closure
            self._locals_stack[-1][name] = f"nested:{name}"
        fact = FunctionFact(qual, node.lineno, params, owner)  # type: ignore[attr-defined]
        self.facts.functions.append(fact)
        self._func_stack.append(fact)
        self._locals_stack.append({p: f"param:{p}" for p in params})
        self.generic_visit(node)
        self._locals_stack.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- assignments ---------------------------------------------------
    def _describe_value(self, value: ast.expr) -> str:
        """Abstract descriptor for a bound value (see DrawFact.receiver)."""
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Name):
            env = self._locals_stack[-1] if self._locals_stack else {}
            return env.get(value.id, f"nameref:{value.id}")
        if isinstance(value, ast.Attribute):
            root = value
            while isinstance(root, ast.Attribute):
                root = root.value  # type: ignore[assignment]
            if isinstance(root, ast.Name) and root.id == "self":
                return f"bound:self.{value.attr}"
            return f"bound:{value.attr}"
        if isinstance(value, ast.Call):
            return self._describe_call(value)
        if isinstance(value, ast.BoolOp):
            # `rng = rng or random.Random(0)` -- safe iff every branch is
            descs = [self._describe_value(v) for v in value.values]
            if all(d.startswith(("param:", "seeded", "sim_rng")) for d in descs):
                return "seeded_local"
            return "opaque"
        return "opaque"

    def _describe_call(self, call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "Random":
                root = func.value
                if isinstance(root, ast.Name) and root.id == "random":
                    return "seeded_local" if (call.args or call.keywords) else "unseeded_local"
            if func.attr == "rng":
                # sim.rng("stream") / self.sim.rng(...) -- a named stream
                return "sim_rng"
            if func.attr == "partial":
                if call.args:
                    return f"partial:{self._describe_value(call.args[0])}"
                return "opaque"
            return f"callattr:{func.attr}"
        if isinstance(func, ast.Name):
            if func.id == "Random":
                return "seeded_local" if (call.args or call.keywords) else "unseeded_local"
            if func.id == "partial":
                if call.args:
                    return f"partial:{self._describe_value(call.args[0])}"
                return "opaque"
            return f"call:{func.id}"
        return "opaque"

    def _record_option_write(self, target: ast.expr) -> None:
        """``<...>config.<attr> = ...`` writes option ``attr``."""
        if not isinstance(target, ast.Attribute):
            return
        receiver = target.value
        name = receiver.attr if isinstance(receiver, ast.Attribute) else (
            receiver.id if isinstance(receiver, ast.Name) else "")
        if name.lower().endswith("config"):
            self.facts.option_writes.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        desc = self._describe_value(node.value)
        for target in node.targets:
            self._record_option_write(target)
            if not isinstance(target, ast.Name):
                continue
            if self._func_stack:
                self._locals_stack[-1][target.id] = desc
            elif not self._class_stack:
                if desc in ("seeded_local", "unseeded_local"):
                    self.facts.rng_globals.append(
                        (target.id, node.lineno, node.col_offset))
                elif desc == "lambda":
                    self.facts.lambda_globals.append(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_option_write(node.target)
        if node.value is not None and isinstance(node.target, ast.Name):
            desc = self._describe_value(node.value)
            if self._func_stack:
                self._locals_stack[-1][node.target.id] = desc
            elif not self._class_stack and desc in ("seeded_local", "unseeded_local"):
                self.facts.rng_globals.append(
                    (node.target.id, node.lineno, node.col_offset))
        self.generic_visit(node)

    def _bind_opaque(self, target: ast.expr) -> None:
        """Loop/with/comprehension targets: known-bound, origin untracked."""
        if not self._locals_stack:
            return
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self._locals_stack[-1][name_node.id] = "bound"

    def visit_For(self, node: ast.For) -> None:
        self._bind_opaque(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_opaque(item.optional_vars)
        self.generic_visit(node)

    def visit_comprehension_gen(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._bind_opaque(gen.target)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_gen
    visit_SetComp = visit_comprehension_gen
    visit_DictComp = visit_comprehension_gen
    visit_GeneratorExp = visit_comprehension_gen

    # -- returns -------------------------------------------------------
    def visit_Return(self, node: ast.Return) -> None:
        if self._func_stack and node.value is not None:
            desc = self._describe_value(node.value)
            if desc == "unseeded_local":
                self._func_stack[-1].returns_rng = "unseeded"
            elif (desc in ("seeded_local", "sim_rng")
                  or desc.startswith(("param:", "nameref:"))):
                self._func_stack[-1].returns_rng = desc
        self.generic_visit(node)

    # -- draws, schedules ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self._func_stack and not node.args and not node.keywords:
            if (isinstance(func, ast.Attribute) and func.attr == "Random"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random") or (
                    isinstance(func, ast.Name) and func.id == "Random"):
                self._func_stack[-1].unseeded.append(
                    (node.lineno, node.col_offset))
        if isinstance(func, ast.Attribute) and func.attr in RNG_DRAW_METHODS:
            self._record_draw(node, func)
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "replace":
            self.facts.option_writes.update(k.arg for k in node.keywords if k.arg)
        elif name is not None and name.endswith("Config"):
            positional = next((i for i, a in enumerate(node.args)
                               if isinstance(a, ast.Starred)), len(node.args))
            self.facts.config_calls.append(
                (name, positional, tuple(k.arg for k in node.keywords if k.arg)))
        if name in SCHEDULE_CALLBACK_ARG and self._func_stack:
            index = SCHEDULE_CALLBACK_ARG[name]
            if index < len(node.args):
                self._func_stack[-1].callback_refs.append(CallbackRef(
                    node.lineno, node.col_offset, name,
                    self._describe_callback(node.args[index]),
                ))
        self.generic_visit(node)

    def _record_draw(self, node: ast.Call, func: ast.Attribute) -> None:
        if not self._func_stack:
            return
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "random":
                return  # the module-global stream: R1's territory
            env = self._locals_stack[-1]
            desc = env.get(receiver.id, f"nameref:{receiver.id}")
        elif isinstance(receiver, ast.Attribute):
            desc = self._describe_value(receiver)
        elif isinstance(receiver, ast.Call):
            desc = self._describe_call(receiver)
        else:
            desc = "opaque"
        self._func_stack[-1].draws.append(
            DrawFact(node.lineno, node.col_offset, func.attr, desc))

    def _describe_callback(self, callback: ast.expr) -> str:
        if isinstance(callback, ast.Lambda):
            return "lambda"
        if isinstance(callback, ast.Name):
            env = self._locals_stack[-1] if self._locals_stack else {}
            if callback.id in env:
                desc = env[callback.id]
                if desc.startswith("param:"):
                    return "opaque"  # caller-supplied; checked at their site
                if desc.startswith("call:") or desc.startswith("callattr:"):
                    return "opaque"  # factory result; not resolvable here
                return desc
            return f"nameref:{callback.id}"
        if isinstance(callback, ast.Attribute):
            root = callback
            while isinstance(root, ast.Attribute):
                root = root.value  # type: ignore[assignment]
            if isinstance(root, ast.Name) and root.id == "self":
                return f"bound:self.{callback.attr}"
            return f"bound:{callback.attr}"
        if isinstance(callback, ast.Call):
            return self._describe_call(callback)
        return "opaque"

    # -- exception handlers --------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            kind = None
            if handler.type is None:
                kind = "bare"
            elif isinstance(handler.type, ast.Name) and handler.type.id in (
                    "Exception", "BaseException"):
                kind = handler.type.id
            elif isinstance(handler.type, ast.Tuple):
                for element in handler.type.elts:
                    if isinstance(element, ast.Name) and element.id in (
                            "Exception", "BaseException"):
                        kind = element.id
                        break
            if kind is not None and self._func_stack:
                reraises = any(isinstance(n, ast.Raise)
                               for child in handler.body
                               for n in ast.walk(child))
                self._func_stack[-1].broad_excepts.append(ExceptFact(
                    handler.lineno, handler.col_offset, kind, reraises))
        self.generic_visit(node)


def extract_facts(tree: ast.AST, posix_path: str) -> ModuleFacts:
    """Collect :class:`ModuleFacts` from a parsed module."""
    visitor = _FactVisitor(posix_path, module_name_for_path(posix_path))
    visitor.visit(tree)
    return visitor.facts


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------

class ProjectIndex:
    """Symbol table + import graph over every linted module."""

    def __init__(self, all_facts: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        for facts in all_facts:
            self.modules[facts.module] = facts
        self.functions: Dict[Tuple[str, str], FunctionFact] = {}
        for facts in all_facts:
            for fn in facts.functions:
                self.functions[(facts.module, fn.qualname)] = fn

    def is_known(self, module: str) -> bool:
        return module in self.modules

    def resolve_import_targets(self, facts: ModuleFacts) -> List[Tuple[str, ImportFact]]:
        """Absolute target modules for every import edge of ``facts``.

        ``from pkg import name`` resolves to ``pkg.name`` when that is a
        known module (submodule import), else to ``pkg`` itself.
        """
        edges: List[Tuple[str, ImportFact]] = []
        for imp in facts.imports:
            if imp.names:
                for name in imp.names:
                    sub = f"{imp.module}.{name}"
                    edges.append((sub if self.is_known(sub) else imp.module, imp))
            else:
                edges.append((imp.module, imp))
        return edges

    def resolve_imported_symbol(
        self, facts: ModuleFacts, name: str
    ) -> Optional[Tuple[str, str]]:
        """Where ``name`` used in ``facts`` comes from: (module, symbol).

        Only explicit ``from m import name [as alias]`` bindings are
        resolved; ``import m`` module references return None.
        """
        for imp in facts.imports:
            if not imp.names:
                continue
            if name in imp.names:
                return (imp.module, name)
        return None

    def import_graph(self, include_type_only: bool = True) -> Dict[str, List[str]]:
        """module -> sorted imported modules (known modules only)."""
        graph: Dict[str, List[str]] = {}
        for module in sorted(self.modules):
            facts = self.modules[module]
            targets = set()
            for target, imp in self.resolve_import_targets(facts):
                if not include_type_only and imp.type_only:
                    continue
                if self.is_known(target) and target != module:
                    targets.add(target)
            graph[module] = sorted(targets)
        return graph
