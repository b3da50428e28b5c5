"""cache-revision: cross-query cache keys must carry a revision stamp.

The PR 5 race this guards: thread A computes an entry against schema
version N, the schema mutates to N+1 and clears the cache, then A's
stale ``put`` lands — and without a version term in the key, every
future lookup at N+1 hits the poisoned entry. With the version in the
key, the stale entry lands under a key nobody at N+1 will ever ask for:
stale-put becomes garbage, not corruption.

Heuristics (syntactic by design, see ``checkers.base``):

- A call site is *cache-like* when it is ``recv.get(key, ...)`` /
  ``recv.put(key, ...)`` and the receiver's terminal name contains
  ``cache``, or the receiver is ``self.X`` where the enclosing class
  assigns ``self.X = SomethingCache(...)`` (catches ``self._results =
  LRUCache(...)``).
- The key expression passes when any identifier, attribute, keyword or
  string constant inside it contains ``version`` / ``revision`` /
  ``generation``. A bare-``Name`` key is resolved through enclosing
  function scopes (``key = (kw, k, self._engine_version())`` then
  ``cache.get(key)`` passes).

Intentionally version-free caches (the service's ranking cache, which
keeps the version in the value, sealed per-snapshot caches) take an inline
``# questlint: disable=cache-revision  # reason``.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    ModuleInfo,
    is_self_attribute,
    terminal_attr,
)
from repro.analysis.findings import Finding

RULE = "cache-revision"
STAMP_TERMS = ("version", "revision", "generation")


def _collect_scope_assignments(
    body: list[ast.stmt],
) -> dict[str, list[ast.expr]]:
    """Name → RHS exprs for simple assignments in one scope.

    Does not descend into nested function/class definitions — those are
    separate scopes with their own frames.
    """
    assignments: dict[str, list[ast.expr]] = {}

    def walk(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assignments.setdefault(target.id, []).append(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    assignments.setdefault(stmt.target.id, []).append(stmt.value)
            for child_body in _stmt_bodies(stmt):
                walk(child_body)

    walk(body)
    return assignments


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field_name, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    handlers = getattr(stmt, "handlers", None)
    if handlers:
        for handler in handlers:
            bodies.append(handler.body)
    return bodies


def _expr_has_stamp(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        text: str | None = None
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        elif isinstance(node, ast.keyword) and node.arg:
            text = node.arg
        if text is not None:
            lowered = text.lower()
            if any(term in lowered for term in STAMP_TERMS):
                return True
    return False


def _key_has_stamp(
    expr: ast.expr, scopes: list[dict[str, list[ast.expr]]]
) -> bool:
    if _expr_has_stamp(expr):
        return True
    # Resolve bare names through enclosing scopes, innermost first.
    pending = [expr]
    seen: set[str] = set()
    while pending:
        node = pending.pop()
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Name) or inner.id in seen:
                continue
            seen.add(inner.id)
            for scope in reversed(scopes):
                values = scope.get(inner.id)
                if not values:
                    continue
                for value in values:
                    if _expr_has_stamp(value):
                        return True
                    pending.append(value)
                break
    return False


def _class_cache_attrs(cls: ast.ClassDef) -> set[str]:
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        ctor = terminal_attr(node.value.func)
        if ctor is None or not ctor.endswith("Cache"):
            continue
        for target in node.targets:
            if is_self_attribute(target):
                assert isinstance(target, ast.Attribute)
                attrs.add(target.attr)
    return attrs


class CacheRevisionChecker(Checker):
    rule = RULE
    description = (
        "cache get/put keys must carry a version/revision/generation "
        "stamp so clear-then-stale-put races poison nothing"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        module_scope = _collect_scope_assignments(module.tree.body)

        def visit(
            stmts: list[ast.stmt],
            class_attrs: list[set[str]],
            scopes: list[dict[str, list[ast.expr]]],
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, class_attrs + [_class_cache_attrs(stmt)], scopes)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    frame = _collect_scope_assignments(stmt.body)
                    self._scan_calls(
                        module, stmt, class_attrs, scopes + [frame], findings
                    )
                    visit(stmt.body, class_attrs, scopes + [frame])
                else:
                    # Defs nested inside try/if/with blocks are still
                    # definitions in the enclosing scope.
                    for body in _stmt_bodies(stmt):
                        visit(body, class_attrs, scopes)

        visit(module.tree.body, [], [module_scope])
        return findings

    def _scan_calls(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        class_attrs: list[set[str]],
        scopes: list[dict[str, list[ast.expr]]],
        findings: list[Finding],
    ) -> None:
        for node in self._own_calls(func):
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method not in ("get", "put") or not node.args:
                continue
            receiver = node.func.value
            if not self._is_cache_receiver(receiver, class_attrs):
                continue
            if _key_has_stamp(node.args[0], scopes):
                continue
            recv_name = terminal_attr(receiver) or "<expr>"
            findings.append(
                module.finding(
                    RULE,
                    node,
                    f"key for {recv_name}.{method}() carries no "
                    "version/revision/generation stamp — a clear-then-"
                    "stale-put race can poison this cache across schema "
                    "mutations",
                )
            )

    @staticmethod
    def _own_calls(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.Call]:
        """Call nodes in *func* excluding nested def/class bodies."""
        calls: list[ast.Call] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(child, ast.Call):
                    calls.append(child)
                walk(child)

        walk(func)
        return calls

    @staticmethod
    def _is_cache_receiver(
        receiver: ast.expr, class_attrs: list[set[str]]
    ) -> bool:
        terminal = terminal_attr(receiver)
        if terminal is not None and "cache" in terminal.lower():
            return True
        if is_self_attribute(receiver):
            assert isinstance(receiver, ast.Attribute)
            return any(receiver.attr in attrs for attrs in class_attrs)
        return False
