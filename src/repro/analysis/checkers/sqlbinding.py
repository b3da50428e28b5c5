"""sql-bound-values: storage SQL binds its values, it never splices them.

The SQLite backend compiles each statement once per text (the
connection's statement cache, and the backend's per-shape cache in
front of it). A value spliced into the text — a keyword, a term, a
constant — makes every call a new text to compile, and a quoting slip
away from an injection. So under ``storage/`` the SQL handed to
``.execute``/``.executemany`` may interpolate only:

- ``quote_identifier(...)`` calls (identifiers cannot be bound);
- module-level names (constants such as ``_POSITION_COLUMN``);
- string constants, and ``"?"`` placeholder lists built from them
  (``", ".join(["?"] * n)``, ``"?" * n``);
- local names bound only to such expressions, including
  ``" AND ".join(f"{quote_identifier(c)} = ?" for c in ...)``.

Everything else in an f-string, a ``%`` format or a ``.format(...)`` call
is flagged, and so is any ``render_literal(...)`` call under
``storage/``: values travel as parameters. SQL passed as an attribute or
a call result (``statement.count``, ``self._create_table_sql(t)``) is
not interpolation at the call site and is not inspected.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, ModuleInfo, resolved_call_name
from repro.analysis.checkers.cachekeys import (
    CacheRevisionChecker,
    _collect_scope_assignments,
    _stmt_bodies,
)
from repro.analysis.findings import Finding

RULE = "sql-bound-values"
GUARDED_LAYERS = ("storage",)
EXECUTE_METHODS = ("execute", "executemany")


def _call_tail(module: ModuleInfo, node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    name = resolved_call_name(module, node)
    return None if name is None else name.rsplit(".", 1)[-1]


class _Safety:
    """Decides whether an interpolated expression is allowed in SQL text."""

    def __init__(
        self,
        module: ModuleInfo,
        module_names: set[str],
        scopes: list[dict[str, list[ast.expr]]],
    ) -> None:
        self._module = module
        self._module_names = module_names
        self._scopes = scopes
        self._resolving: set[str] = set()

    def values(self, name: str) -> list[ast.expr] | None:
        """What *name* is bound to in the innermost function scope binding it."""
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def safe(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, ast.JoinedStr):
            return all(self.safe(part) for part in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.safe(node.value)
        if isinstance(node, ast.Name):
            return self._safe_name(node.id)
        if isinstance(node, ast.Call):
            tail = _call_tail(self._module, node)
            if tail == "quote_identifier":
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and isinstance(node.func.value, ast.Constant)
                and len(node.args) == 1
            ):
                return self._safe_elements(node.args[0])
            return False
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return self.safe(node.left) and self.safe(node.right)
            if isinstance(node.op, ast.Mult):
                # "?" * n: a run of placeholders.
                return self._constant_str(node.left) or self._constant_str(node.right)
        return False

    def _safe_elements(self, node: ast.expr) -> bool:
        """Whether every element of a joined iterable is safe SQL text."""
        if isinstance(node, (ast.List, ast.Tuple)):
            return all(self.safe(element) for element in node.elts)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self.safe(node.elt)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._safe_elements(node.left) and self._safe_elements(node.right)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            # ["?"] * n, or "?" * n iterated character by character.
            return any(
                self._safe_elements(side) or self._constant_str(side)
                for side in (node.left, node.right)
            )
        if isinstance(node, ast.Name):
            values = self.values(node.id)
            return bool(values) and all(self._safe_elements(v) for v in values)
        return False

    def _safe_name(self, name: str) -> bool:
        values = self.values(name)
        if values is None:
            return name in self._module_names
        if name in self._resolving:
            return False
        self._resolving.add(name)
        try:
            return all(self.safe(value) for value in values)
        finally:
            self._resolving.discard(name)

    @staticmethod
    def _constant_str(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _interpolated(node: ast.expr) -> list[ast.expr] | None:
    """The interpolated parts of a formatted SQL expression, else None."""
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values if isinstance(part, ast.FormattedValue)]
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, (ast.Constant, ast.JoinedStr))
    ):
        right = node.right
        return list(right.elts) if isinstance(right, ast.Tuple) else [right]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return list(node.args) + [keyword.value for keyword in node.keywords]
    return None


class SqlBoundValuesChecker(Checker):
    rule = RULE
    description = (
        "SQL executed under storage/ interpolates only quote_identifier() "
        "calls and constants; values are bound as parameters"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        parts = module.rel_path.replace("\\", "/").split("/")
        if not any(layer in parts for layer in GUARDED_LAYERS):
            return []
        module_names = set(_collect_scope_assignments(module.tree.body))
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if _call_tail(module, node) == "render_literal":
                findings.append(
                    module.finding(
                        RULE,
                        node,
                        "render_literal() under storage/ splices a value into "
                        "SQL text — bind it as a parameter instead",
                    )
                )
        self._visit(module, module.tree.body, module_names, [], findings)
        return findings

    def _visit(
        self,
        module: ModuleInfo,
        stmts: list[ast.stmt],
        module_names: set[str],
        scopes: list[dict[str, list[ast.expr]]],
        findings: list[Finding],
    ) -> None:
        """Check every function's own calls against its scope chain."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                frames = scopes + [_collect_scope_assignments(stmt.body)]
                safety = _Safety(module, module_names, frames)
                for call in CacheRevisionChecker._own_calls(stmt):
                    self._check_call(module, call, safety, findings)
                self._visit(module, stmt.body, module_names, frames, findings)
            elif isinstance(stmt, ast.ClassDef):
                self._visit(module, stmt.body, module_names, scopes, findings)
            else:
                for body in _stmt_bodies(stmt):
                    self._visit(module, body, module_names, scopes, findings)

    @staticmethod
    def _check_call(
        module: ModuleInfo, node: ast.Call, safety: _Safety, findings: list[Finding]
    ) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in EXECUTE_METHODS
            and node.args
        ):
            return
        sql = node.args[0]
        candidates = [sql]
        if isinstance(sql, ast.Name):
            candidates = safety.values(sql.id) or []
        for candidate in candidates:
            parts = _interpolated(candidate)
            if parts is None:
                continue
            for part in parts:
                if safety.safe(part):
                    continue
                findings.append(
                    module.finding(
                        RULE,
                        part,
                        f"SQL passed to .{node.func.attr}() interpolates "
                        f"{ast.unparse(part)!r} — only quote_identifier() "
                        "calls and constants may be spliced; bind values "
                        "as parameters",
                    )
                )
