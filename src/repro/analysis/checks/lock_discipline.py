"""Lock discipline around shared mutable state.

For the cache and shared-memory modules the rule is: if an attribute is
ever mutated under ``with self._lock``, then *every* mutation of it must
hold the lock.  Two escape hatches keep the rule honest rather than noisy:

- ``__init__`` (and helpers reachable only from it) run before the object
  is shared, so their mutations are exempt;
- a private helper whose every call site is itself lock-held (e.g. a
  ``_bump`` with a "caller holds the lock" contract) is treated as
  lock-held, computed as a fixpoint over the class's ``self.X()`` calls.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Finding, Project

__all__ = ["LockDisciplineChecker"]

CHECK_ID = "lock-discipline"

#: Modules holding lock-guarded shared state.
TARGET_MODULES = (
    "storage/cache.py",
    "core/shm.py",
    "core/parallel.py",
)

LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "Lock", "RLock"}


class LockDisciplineChecker:
    check_id = CHECK_ID
    description = (
        "attributes mutated under 'with self._lock' anywhere are mutated "
        "under it everywhere (outside __init__/lock-held helpers)"
    )

    def __init__(self, target_modules: Tuple[str, ...] = TARGET_MODULES) -> None:
        self.target_modules = target_modules

    def run(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for relpath in self.target_modules:
            module = project.module(relpath)
            if module is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    findings.extend(self._check_class(relpath, node))
        return findings

    def _check_class(self, relpath: str, cls: ast.ClassDef) -> Iterable[Finding]:
        lock_attrs = self._lock_attrs(cls)
        if not lock_attrs:
            return
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Per method: mutations [(attr, line, locked)] and self-calls
        # [(callee, locked)].
        mutations: Dict[str, List[Tuple[str, int, bool]]] = {}
        calls: Dict[str, List[Tuple[str, bool]]] = {}
        for method in methods:
            muts, self_calls = self._scan_method(method, lock_attrs)
            mutations[method.name] = muts
            calls[method.name] = self_calls

        guarded: Set[str] = set()
        for muts in mutations.values():
            guarded.update(attr for attr, _, locked in muts if locked)
        if not guarded:
            return

        # Call sites per callee: (caller, locked-at-site).
        sites: Dict[str, List[Tuple[str, bool]]] = {}
        for caller, self_calls in calls.items():
            for callee, locked in self_calls:
                sites.setdefault(callee, []).append((caller, locked))

        # Fixpoint: a method is lock-held if it has call sites and each one
        # either holds the lock, comes from __init__ (pre-sharing), or comes
        # from another lock-held method.
        lock_held: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for method in methods:
                name = method.name
                if name == "__init__" or name in lock_held:
                    continue
                method_sites = sites.get(name)
                if not method_sites:
                    continue
                if all(
                    locked or caller == "__init__" or caller in lock_held
                    for caller, locked in method_sites
                ):
                    lock_held.add(name)
                    changed = True

        lock_name = sorted(lock_attrs)[0]
        for method in methods:
            if method.name == "__init__" or method.name in lock_held:
                continue
            for attr, lineno, locked in mutations[method.name]:
                if locked or attr not in guarded:
                    continue
                yield Finding(
                    relpath,
                    lineno,
                    CHECK_ID,
                    f"{cls.name}.{method.name} mutates self.{attr} without "
                    f"holding self.{lock_name} (guarded elsewhere by "
                    f"'with self.{lock_name}')",
                )

    def _lock_attrs(self, cls: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) in LOCK_FACTORIES
            ):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    def _scan_method(self, method, lock_attrs):
        """Walk one method, tracking whether each statement sits inside a
        ``with self.<lock>`` block."""
        mutations: List[Tuple[str, int, bool]] = []
        self_calls: List[Tuple[str, bool]] = []

        def is_lock_with(item: ast.withitem) -> bool:
            name = dotted_name(item.context_expr)
            return name is not None and name.startswith("self.") and (
                name.split(".")[1] in lock_attrs
            )

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or any(is_lock_with(item) for item in node.items)
                for item in node.items:
                    visit(item.context_expr, locked)
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for attr in _self_attr_targets(target):
                        mutations.append((attr, node.lineno, locked))
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and name.startswith("self.") and name.count(".") == 1:
                    self_calls.append((name.split(".")[1], locked))
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for stmt in method.body:
            visit(stmt, False)
        return mutations, self_calls


def _self_attr_targets(target: ast.expr) -> List[str]:
    """The first attribute after ``self`` in an assignment target, so both
    ``self._header = ...`` and ``self._segment.buf[a:b] = ...`` resolve to
    the owning slot (``_header`` / ``_segment``)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_self_attr_targets(element))
        return out
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    chain: List[str] = []
    while isinstance(target, ast.Attribute):
        chain.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name) and target.id == "self" and chain:
        return [chain[-1]]
    return []
