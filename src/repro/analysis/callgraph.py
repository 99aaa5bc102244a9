"""Best-effort intra-project call graph for worker-reachability rules.

R004 (wall-clock-in-worker) and R007 (mutable-module-global) reason about
*worker-executed* code: the functions a :class:`repro.workerpool.ResilientPool`
chunk function or initializer can reach, plus the spec builder and chunk
function handed to the spec-initialized primitives
(:class:`repro.workerpool.ShardMap`, :func:`repro.workerpool.spec_pool`),
which the shared initializer and chunk runner only call through
variables.  Python being Python, perfect call
resolution is undecidable — this module resolves what the codebase actually
does and deliberately over-approximates the rest:

* ``foo()``            → the module's own ``foo``, else an imported ``foo``;
* ``mod.foo()``        → ``foo`` in the imported project module ``mod``;
* ``Cls.foo()`` / ``Cls()`` → the imported project class's method / ctor;
* ``self.foo()``       → ``foo`` on the enclosing class when known;
* ``obj.foo()``        → **every** project method named ``foo`` (the
  over-approximation: without type inference the receiver is unknown, so
  reachability errs toward inclusion — a missed wall-clock read in a worker
  is worse than an extra line to annotate).

Builtins and third-party modules are simply absent from the index, so
``.append()`` / ``np.reshape()`` resolve to nothing and cost nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import FunctionRecord, ProjectIndex

__all__ = ["find_worker_entries", "call_targets", "reachable_from"]

#: Call sites that define worker entry points: callee name -> the
#: (positional index, keyword name) of every argument executed in worker
#: processes.  ``ResilientPool(worker_fn, initializer, ...)`` runs its
#: first two; the spec-initialized primitives ``ShardMap(site, build,
#: spec, fn, ...)`` / ``spec_pool(...)`` run ``build`` and ``fn``.
WORKER_ENTRY_ARGS: Dict[str, Tuple[Tuple[int, str], ...]] = {
    "ResilientPool": ((0, "worker_fn"), (1, "initializer")),
    "ShardMap": ((1, "build"), (3, "fn")),
    "spec_pool": ((1, "build"), (3, "fn")),
}


def _called_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def find_worker_entries(project: ProjectIndex) -> List[Tuple[str, str]]:
    """Every function a pool call site hands to worker processes."""
    entries: List[Tuple[str, str]] = []
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            slots = WORKER_ENTRY_ARGS.get(_called_name(node.func) or "")
            if slots is None:
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            for index, keyword in slots:
                if index < len(node.args):
                    arg: Optional[ast.AST] = node.args[index]
                else:
                    arg = keywords.get(keyword)
                key = _resolve_reference(arg, module, project)
                if key is not None and key not in entries:
                    entries.append(key)
    return entries


def _resolve_reference(
    node: Optional[ast.AST], module, project: ProjectIndex
) -> Optional[Tuple[str, str]]:
    """A function passed by reference (``fn``, ``Cls.method``, ``mod.fn``)."""
    if isinstance(node, ast.Name):
        return _resolve_name(node.id, module, project)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = node.value.id
        if base in module.import_aliases:
            remote = project.module_functions.get(module.import_aliases[base], {})
            return remote.get(node.attr)
        owner = module.from_imports.get(base, (module.logical, base))
        return project.class_methods.get(owner, {}).get(node.attr)
    return None


def _resolve_name(
    name: str, module, project: ProjectIndex
) -> Optional[Tuple[str, str]]:
    """A bare name in ``module`` -> project function key (or class ctor)."""
    local = project.module_functions.get(module.logical, {})
    if name in local:
        return local[name]
    if name in module.from_imports:
        target_module, orig = module.from_imports[name]
        remote = project.module_functions.get(target_module, {})
        if orig in remote:
            return remote[orig]
        ctor = project.class_methods.get((target_module, orig), {})
        if "__init__" in ctor:
            return ctor["__init__"]
    # A class defined in this module, called as a constructor.
    ctor = project.class_methods.get((module.logical, name), {})
    if "__init__" in ctor:
        return ctor["__init__"]
    return None


def call_targets(
    record: FunctionRecord, project: ProjectIndex
) -> Set[Tuple[str, str]]:
    """Project functions the given function's body may call (by name)."""
    module = record.module
    targets: Set[Tuple[str, str]] = set()
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            key = _resolve_name(func.id, module, project)
            if key is not None:
                targets.add(key)
        elif isinstance(func, ast.Attribute):
            targets.update(_attribute_targets(func, record, project))
    return targets


def _attribute_targets(
    func: ast.Attribute, record: FunctionRecord, project: ProjectIndex
) -> Iterable[Tuple[str, str]]:
    module = record.module
    base = func.value
    method = func.attr
    if isinstance(base, ast.Name):
        # mod.foo() on an imported project module.
        if base.id in module.import_aliases:
            target_module = module.import_aliases[base.id]
            remote = project.module_functions.get(target_module, {})
            if method in remote:
                return [remote[method]]
            ctor = project.class_methods.get((target_module, method), {})
            if "__init__" in ctor:
                return [ctor["__init__"]]
            return []
        # Cls.foo() on an imported (or local) project class.
        if base.id in module.from_imports:
            target_module, orig = module.from_imports[base.id]
            methods = project.class_methods.get((target_module, orig), {})
            if method in methods:
                return [methods[method]]
        if (module.logical, base.id) in project.class_methods:
            methods = project.class_methods[(module.logical, base.id)]
            if method in methods:
                return [methods[method]]
        # self.foo() inside a known class.
        if base.id == "self" and record.class_name is not None:
            methods = project.class_methods.get(
                (module.logical, record.class_name), {}
            )
            if method in methods:
                return [methods[method]]
    # Receiver type unknown: over-approximate with every project method of
    # this name (builtins aren't indexed, so .append()/.get() on stdlib
    # types resolve to project classes only, if any).
    return project.methods_by_name.get(method, [])


def reachable_from(
    project: ProjectIndex, entries: Iterable[Tuple[str, str]]
) -> Set[Tuple[str, str]]:
    """BFS closure of :func:`call_targets` over the project index."""
    seen: Set[Tuple[str, str]] = set()
    frontier = [key for key in entries if key in project.functions]
    seen.update(frontier)
    while frontier:
        next_frontier: List[Tuple[str, str]] = []
        for key in frontier:
            record = project.functions[key]
            for target in call_targets(record, project):
                if target not in seen and target in project.functions:
                    seen.add(target)
                    next_frontier.append(target)
        frontier = next_frontier
    return seen
