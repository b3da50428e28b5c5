"""fork-safety: every lock must be re-created in forked children.

PR 5's fork story: ``os.fork`` copies a lock in whatever state a sibling
thread left it, so a child that inherits a *held* lock deadlocks the
first time it touches the guarded structure. ``repro.forksafe`` fixes
this by re-initialising registered locks in ``after_in_child`` hooks —
but only for holders that actually registered. This checker makes the
registration mechanical: any class that assigns a
``threading.Lock``/``RLock``/``Condition`` to ``self.*`` must call
``register_lock_holder`` somewhere in its body (the universal idiom in
this codebase is a module-level resetter plus a
``register_lock_holder(self, _reset_x)`` call in ``__init__``).

Module-level locks follow the same rule one level up: a module that
creates a ``threading.Lock``/``RLock``/``Condition`` at import time must
call ``os.register_at_fork`` to replace it in the child, as
``repro.forksafe`` does for its own registry lock.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    ModuleInfo,
    is_self_attribute,
    resolved_call_name,
)
from repro.analysis.findings import Finding

LOCK_CONSTRUCTORS = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
}

RULE = "fork-safety"


def _lock_binding(
    module: ModuleInfo, node: ast.AST
) -> tuple[list[ast.expr], str] | None:
    """``(targets, kind)`` when *node* assigns a new threading lock."""
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = node.targets
        value: ast.expr | None = node.value
    elif isinstance(node, ast.AnnAssign):
        targets, value = [node.target], node.value
    else:
        return None
    if not isinstance(value, ast.Call):
        return None
    kind = LOCK_CONSTRUCTORS.get(resolved_call_name(module, value) or "")
    return None if kind is None else (targets, kind)


def self_lock_assignments(
    module: ModuleInfo, cls: ast.ClassDef
) -> list[tuple[ast.AST, str, str]]:
    """``(node, attr, kind)`` for each ``self.X = threading.Lock()`` in *cls*.

    Shared with the lock-order checker, which needs lock kinds to decide
    whether a nested re-acquisition is a self-deadlock (Lock) or benign
    reentrancy (RLock).
    """
    found: list[tuple[ast.AST, str, str]] = []
    for node in ast.walk(cls):
        binding = _lock_binding(module, node)
        if binding is None:
            continue
        targets, kind = binding
        for target in targets:
            if is_self_attribute(target):
                assert isinstance(target, ast.Attribute)
                found.append((node, target.attr, kind))
    return found


def _module_lock_assignments(module: ModuleInfo) -> list[tuple[ast.AST, str, str]]:
    """``(node, name, kind)`` for each lock bound at module level.

    Walks the module body and its compound statements (``if``/``try``/
    ``with``), but not function or class bodies.
    """
    found: list[tuple[ast.AST, str, str]] = []
    pending: list[ast.AST] = list(module.tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        binding = _lock_binding(module, node)
        if binding is None:
            pending.extend(ast.iter_child_nodes(node))
            continue
        targets, kind = binding
        for target in targets:
            if isinstance(target, ast.Name):
                found.append((node, target.id, kind))
    return found


def _registers_at_fork(module: ModuleInfo) -> bool:
    return any(
        isinstance(node, ast.Call)
        and resolved_call_name(module, node) == "os.register_at_fork"
        for node in ast.walk(module.tree)
    )


def _registers_forksafe(module: ModuleInfo, cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolved_call_name(module, node)
        if resolved is not None and resolved.endswith("register_lock_holder"):
            return True
    return False


class ForkSafetyChecker(Checker):
    rule = RULE
    description = (
        "threading locks assigned to self.* must register with "
        "repro.forksafe.register_lock_holder, and a module holding a "
        "module-level lock must call os.register_at_fork, so forked "
        "children reset them"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = self_lock_assignments(module, node)
            if not locks or _registers_forksafe(module, node):
                continue
            for assign, attr, kind in locks:
                findings.append(
                    module.finding(
                        RULE,
                        assign,
                        f"{node.name}.{attr} is a threading.{kind} held on "
                        f"self, but {node.name} never calls "
                        "repro.forksafe.register_lock_holder — a fork while "
                        "a sibling thread holds it deadlocks the child",
                    )
                )
        if not _registers_at_fork(module):
            for assign, name, kind in _module_lock_assignments(module):
                findings.append(
                    module.finding(
                        RULE,
                        assign,
                        f"module-level {name} is a threading.{kind}, but "
                        "this module never calls os.register_at_fork to "
                        "replace it in a forked child — a fork while a "
                        "sibling thread holds it deadlocks the child",
                    )
                )
        return findings
