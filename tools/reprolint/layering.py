"""R6: the module layering contract; R10: every module is reached;
R11: every option is set.

The reproduction's packages form an intended DAG (documented in
``docs/STATIC_ANALYSIS.md``); refactors like the hybrid fluid/packet
core and the real-UDP transport depend on it staying acyclic.  This
pass resolves every import edge (including ``TYPE_CHECKING``-only ones
-- a type-only back edge is still a cycle waiting to be materialised)
and flags:

- edges between ``repro`` layers the contract does not allow, and
- module-level import cycles anywhere in the scanned tree.

R10 walks the same edges from the entry points -- the modules
named in ``cli.COMMANDS`` and every ``repro`` import of ``perf/*.py``
-- and flags each ``repro`` module the walk never reaches.  R11 holds
options to the same rule: a field of a ``repro`` class named
``*Config`` counts as set where a reached module, or a ``perf/*.py``
file, passes it as a keyword or positional argument to its class, as
a keyword of ``replace(...)``, or assigns it through
``<...>config.<field> = ...`` (the last two by field name alone).
Tests and examples do not count: a field only they set is a
configuration no figure, result or ledger row runs.
"""

from __future__ import annotations

import ast
import glob
import os
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reprolint.project import ProjectIndex, extract_facts
from tools.reprolint.rules import Finding

#: every layer name; TOP layers may import anything
_ALL = frozenset(
    {"util", "sanitize", "_version", "dnscore", "obs", "netsim", "fluid",
     "server", "dcc", "transport", "chaos", "workloads", "measure",
     "analysis", "fuzz", "experiments", "cli", "__main__", "<root>"}
)

#: the intended DAG: layer -> layers it may import (itself always allowed)
DEFAULT_CONTRACT: Dict[str, FrozenSet[str]] = {
    "_version": frozenset(),
    "sanitize": frozenset(),
    "util": frozenset({"sanitize", "_version"}),
    "dnscore": frozenset({"util", "sanitize", "_version"}),
    "obs": frozenset({"util", "dnscore", "sanitize", "_version"}),
    "netsim": frozenset({"util", "dnscore", "obs", "sanitize", "_version"}),
    # the hybrid fluid/packet core: util <- dnscore <- obs <- netsim <-
    # fluid.  Nothing below it may import it -- the packet substrate
    # stays fluid-blind, and the coupling (shared token buckets,
    # overload pressure sinks) is injected from above (docs/SCALING.md).
    "fluid": frozenset({"netsim", "dnscore", "util", "obs", "sanitize",
                        "_version"}),
    "server": frozenset({"netsim", "dnscore", "util", "obs", "sanitize", "_version"}),
    "dcc": frozenset({"netsim", "dnscore", "util", "obs", "sanitize", "_version"}),
    # transport sits *above* server (its query engine reuses the RFC 6298
    # machinery in server.health) but below workloads/experiments; server
    # and dcc must never import it -- that is what keeps both backends
    # driving the identical scheduler/policing/health modules.
    "transport": frozenset({"server", "netsim", "dnscore", "util", "obs",
                            "sanitize", "_version"}),
    # chaos orchestrates faults *against* a backend, so it sits above
    # transport; the layers under test (server/dcc) must never import it
    # -- they stay chaos-blind on either backend.
    "chaos": frozenset({"transport", "netsim", "dnscore", "util", "obs",
                        "sanitize", "_version"}),
    "workloads": frozenset({"fluid", "dcc", "server", "netsim", "dnscore",
                            "util", "obs", "sanitize", "_version"}),
    "measure": frozenset({"workloads", "server", "netsim", "dnscore", "util",
                          "obs", "sanitize", "_version"}),
    "analysis": frozenset({"obs", "util", "dnscore", "sanitize", "_version"}),
    "fuzz": frozenset({"workloads", "fluid", "dcc", "server", "netsim",
                       "dnscore", "util", "obs", "sanitize", "_version"}),
    "experiments": _ALL,
    "cli": _ALL,
    "__main__": _ALL,
    "<root>": _ALL,
}


def repro_layer(module: str) -> str:
    """The layer of a ``repro`` module; "" for anything else.

    ``repro.dcc.mopifq`` -> ``dcc``; ``repro.sanitize`` -> ``sanitize``;
    the facade ``repro`` itself -> ``<root>``.
    """
    if module == "repro":
        return "<root>"
    if not module.startswith("repro."):
        return ""
    return module.split(".")[1]


def _line_text(sources: Dict[str, List[str]], path: str, line: int) -> str:
    lines = sources.get(path, [])
    return lines[line - 1].rstrip() if 0 < line <= len(lines) else ""


def check_layering(
    index: ProjectIndex,
    sources: Dict[str, List[str]],
    contract: Dict[str, FrozenSet[str]] = DEFAULT_CONTRACT,
) -> List[Finding]:
    """All R6 findings: contract violations plus import cycles."""
    findings: List[Finding] = []
    for module in sorted(index.modules):
        facts = index.modules[module]
        layer = repro_layer(module)
        if not layer:
            continue  # tests/tools/examples sit above the contract
        allowed = contract.get(layer, _ALL)
        seen: set = set()
        for target, imp in index.resolve_import_targets(facts):
            target_layer = repro_layer(target)
            if not target_layer or target_layer == layer:
                continue
            if target_layer in allowed:
                continue
            key = (target_layer, imp.line)
            if key in seen:
                continue
            seen.add(key)
            qualifier = " (TYPE_CHECKING-only, still a layering edge)" if imp.type_only else ""
            findings.append(Finding(
                facts.path, imp.line, imp.col, "R6",
                f"layering violation: '{layer}' may not import '{target_layer}'"
                f" ({module} -> {target}){qualifier}",
                _line_text(sources, facts.path, imp.line),
            ))
    findings.extend(_check_cycles(index, sources))
    return findings


def _check_cycles(
    index: ProjectIndex, sources: Dict[str, List[str]]
) -> List[Finding]:
    """Tarjan SCCs over the module graph; any SCC > 1 is a cycle."""
    graph = index.import_graph(include_type_only=True)
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # iterative Tarjan (the tree is shallow, but recursion limits are
        # not a failure mode a linter should have)
        work: List[Tuple[str, int]] = [(node, 0)]
        while work:
            current, edge_index = work.pop()
            if edge_index == 0:
                order[current] = low[current] = counter[0]
                counter[0] += 1
                stack.append(current)
                on_stack[current] = True
            recursed = False
            neighbours = graph.get(current, [])
            for i in range(edge_index, len(neighbours)):
                neighbour = neighbours[i]
                if neighbour not in order:
                    work.append((current, i + 1))
                    work.append((neighbour, 0))
                    recursed = True
                    break
                if on_stack.get(neighbour):
                    low[current] = min(low[current], order[neighbour])
            if recursed:
                continue
            if low[current] == order[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])

    for module in sorted(graph):
        if module not in order:
            strongconnect(module)

    findings: List[Finding] = []
    for component in sorted(sccs):
        member_set = set(component)
        # anchor the finding at each in-cycle import site (one per line)
        reported: set = set()
        for module in component:
            facts = index.modules[module]
            for target, imp in index.resolve_import_targets(facts):
                if (module, target, imp.line) in reported:
                    continue
                reported.add((module, target, imp.line))
                if target in member_set and target != module:
                    qualifier = " via TYPE_CHECKING" if imp.type_only else ""
                    findings.append(Finding(
                        facts.path, imp.line, imp.col, "R6",
                        f"import cycle{qualifier}: "
                        + " <-> ".join(component),
                        _line_text(sources, facts.path, imp.line),
                    ))
    return findings


# ----------------------------------------------------------------------
# R10: unreached src/ modules
# ----------------------------------------------------------------------

def _defining_module(index: ProjectIndex, module: str, name: str) -> str:
    """Where ``from module import name`` leads: the submodule
    ``module.name``, else -- through a package's re-exports -- the module
    that defines ``name``, else ``module`` itself.

    :meth:`ProjectIndex.resolve_import_targets` stops at the package,
    which is right for R6 (importing a package runs its ``__init__``)
    and wrong here (a re-export is not a use)."""
    seen: Set[str] = set()
    while module not in seen:  # a re-export cycle must not hang
        seen.add(module)
        if index.is_known(f"{module}.{name}"):
            return f"{module}.{name}"
        facts = index.modules.get(module)
        if facts is None or not facts.path.endswith("__init__.py"):
            return module
        source = next((imp.module for imp in facts.imports
                       if name in imp.names and not imp.type_only), None)
        if source is None:
            return module
        module = source
    return module


def _import_targets(index: ProjectIndex, module: str, names: Sequence[str]) -> List[str]:
    if not names:
        return [module]
    return [_defining_module(index, module, name) for name in names]


def perf_trees(index: ProjectIndex) -> List[ast.Module]:
    """The parsed ``perf/*.py`` files beside the checkout's ``src/``
    (none when the linted tree has no ``repro.cli``)."""
    cli = index.modules.get("repro.cli")
    if cli is None:
        return []
    checkout = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(cli.path))))
    trees = []
    for path in sorted(glob.glob(os.path.join(checkout, "perf", "*.py"))):
        with open(path, "rb") as handle:
            trees.append(ast.parse(handle.read().decode("utf-8")))
    return trees


def entry_roots(index: ProjectIndex, sources: Dict[str, List[str]], perf: bool = True) -> List[str]:
    """The modules the entry points load: ``repro.cli``, ``repro.__main__``,
    every module named in ``cli.COMMANDS`` (read from the AST, not
    imported) and, with ``perf``, every ``repro`` import of
    ``perf/*.py`` beside the checkout's ``src/``.  Empty when the linted
    tree has no ``repro.cli``."""
    cli = index.modules.get("repro.cli")
    if cli is None:
        return []
    roots = {"repro.cli", "repro.__main__"}
    tree = ast.parse("\n".join(sources.get(cli.path, [])))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            targets, table = [node.target], node.value
        elif isinstance(node, ast.Assign):
            targets, table = node.targets, node.value
        else:
            continue
        if isinstance(table, ast.Dict) and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in targets):
            for row in table.values:
                if isinstance(row, ast.Tuple) and row.elts and isinstance(row.elts[0], ast.Constant):
                    roots.add(str(row.elts[0].value).partition(":")[0])
    if perf:
        for perf_tree in perf_trees(index):
            for node in ast.walk(perf_tree):
                if isinstance(node, ast.Import):
                    roots.update(a.name for a in node.names if a.name.startswith("repro"))
                elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").startswith("repro"):
                    roots.update(_import_targets(index, node.module or "", [a.name for a in node.names]))
    return sorted(roots)


def reached_modules(index: ProjectIndex, roots: Iterable[str]) -> Set[str]:
    """Every module reachable from ``roots`` over runtime import edges
    (function-local ones included, ``TYPE_CHECKING`` ones not).
    ``from pkg import Name`` reaches the module that defines ``Name``,
    not ``pkg``: a package re-export alone reaches nothing."""
    reached: Set[str] = set()
    stack = [root for root in roots if index.is_known(root)]
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        for imp in index.modules[module].imports:
            if imp.type_only:
                continue
            stack.extend(target for target in _import_targets(index, imp.module, imp.names)
                         if index.is_known(target) and target not in reached)
    return reached


def check_unreached(
    index: ProjectIndex,
    sources: Dict[str, List[str]],
    roots: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """All R10 findings: ``repro`` modules (package ``__init__``s aside)
    that no entry point reaches.  ``roots`` defaults to :func:`entry_roots`."""
    if roots is None:
        roots = entry_roots(index, sources)
    if not roots:
        return []
    reached = reached_modules(index, roots)
    findings: List[Finding] = []
    for module in sorted(index.modules):
        facts = index.modules[module]
        if not repro_layer(module) or module in reached or facts.path.endswith("__init__.py"):
            continue
        findings.append(Finding(
            facts.path, 1, 0, "R10",
            f"unreached module: no entry point (cli.COMMANDS, perf/) imports {module}",
            _line_text(sources, facts.path, 1),
        ))
    return findings


# ----------------------------------------------------------------------
# R11: options no driver sets
# ----------------------------------------------------------------------

def check_unset_options(
    index: ProjectIndex,
    sources: Dict[str, List[str]],
    roots: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """All R11 findings, one per unset field at its declaration.
    ``roots`` defaults to :func:`entry_roots`; silent when there are none."""
    if roots is None:
        roots = entry_roots(index, sources)
    if not roots:
        return []
    declared = [(facts, cls, spec) for module, facts in sorted(index.modules.items())
                if repro_layer(module) for cls, spec in sorted(facts.config_fields.items())]
    fields = {cls: [name for name, _, _ in spec] for _, cls, spec in declared}
    drivers = [index.modules[m] for m in sorted(reached_modules(index, roots))]
    drivers += [extract_facts(tree, "perf/driver.py") for tree in perf_trees(index)]
    written: Set[Tuple[str, str]] = set()
    for facts in drivers:
        for cls, positional, keywords in facts.config_calls:
            names = fields.get(cls, [])
            written.update((cls, name) for name in names[:positional] + [k for k in keywords if k in names])
        written.update((cls, name) for cls, names in fields.items()
                       for name in names if name in facts.option_writes)
    return [
        Finding(facts.path, line, col, "R11",
                f"option no driver sets: {cls}.{name} (make it a module constant)",
                _line_text(sources, facts.path, line))
        for facts, cls, spec in declared for name, line, col in spec
        if (cls, name) not in written
    ]


def render_contract(contract: Dict[str, FrozenSet[str]] = DEFAULT_CONTRACT) -> str:
    """Human-readable contract dump (``--explain-layers``)."""
    lines = ["layer contract (layer -> may import):"]
    for layer in sorted(contract):
        allowed = contract[layer]
        label = "anything" if allowed == _ALL else ", ".join(sorted(allowed)) or "(nothing)"
        lines.append(f"  {layer:<12} -> {label}")
    return "\n".join(lines)
