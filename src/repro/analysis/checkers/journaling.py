"""journal-discipline: storage mutations journal before they apply.

PR 9's durability contract: ``add_rows``/``delete_rows`` return ⇒ the
batch is fsync'd in the journal, because the journal append *is* the
durability ack and crash recovery replays from it. The shape that makes
that true is validate → journal → apply — an apply-side helper invoked
before its batch is journaled acknowledges state that a crash would
silently lose.

Mechanically: inside any class whose name (or base) mentions
``Backend``, a method that calls a ``self._apply_*`` helper must make a
journal call (an attribute access whose name contains ``journal``, e.g.
``self._journal_append(...)`` or ``self._journal.append(...)``) on an
earlier line of the same method. Textual order approximates dominance —
exact for the straight-line mutation paths this codebase uses. The
``_apply_*`` definitions themselves are exempt (they are the apply
side); the recovery replay path re-applies *already-journaled* records
and carries an inline disable explaining exactly that.

Validation reads the stored state (is this key already there?), so two
batches that validate before either applies can both accept one new
key. The journal call and the apply call therefore sit inside one
``with self._writer_lock:`` block. The method must enter it before it
validates too; validation has no fixed name, so that part is unchecked.

The version must move only after a write commits, or the result-count
cache is not exact (``storage/base.py``). So inside a backend class
``self._version`` is assigned only in ``_write`` (SQLite's one write
transaction) and ``__init__``.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    ModuleInfo,
    class_functions,
    terminal_attr,
)
from repro.analysis.findings import Finding

RULE = "journal-discipline"

#: The methods allowed to assign ``self._version`` in a backend class.
_VERSION_WRITERS = frozenset({"_write", "__init__"})
#: The per-backend lock held across validate -> journal -> apply.
_WRITER_LOCK = "_writer_lock"


def _is_backend_class(cls: ast.ClassDef) -> bool:
    if "Backend" in cls.name:
        return True
    for base in cls.bases:
        base_name = terminal_attr(base)
        if base_name is not None and "Backend" in base_name:
            return True
    return False


def _is_writer_lock(expr: ast.expr) -> bool:
    """Whether *expr* is ``self._writer_lock``."""
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == _WRITER_LOCK
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _assigns_version(node: ast.AST) -> bool:
    """Whether *node* assigns ``self._version`` (``=``, ``+=`` or annotated)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Attribute)
        and target.attr == "_version"
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        for target in targets
    )


class JournalDisciplineChecker(Checker):
    rule = RULE
    description = (
        "storage-backend methods must journal (validate -> journal -> "
        "apply, under self._writer_lock) before invoking self._apply_* "
        "helpers, and only _write may move self._version"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not _is_backend_class(node):
                continue
            for method in class_functions(node):
                if method.name not in _VERSION_WRITERS:
                    findings.extend(
                        module.finding(
                            RULE,
                            statement,
                            f"{node.name}.{method.name} assigns self._version "
                            "outside _write — the version must move only "
                            "after the write commits, in one place",
                        )
                        for statement in ast.walk(method)
                        if _assigns_version(statement)
                    )
                if method.name.startswith("_apply_"):
                    continue
                findings.extend(self._check_method(module, node, method))
        return findings

    def _check_method(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        apply_calls: list[ast.Call] = []
        journal_lines: list[int] = []
        #: (first, last) line of each ``with self._writer_lock:`` block
        locked: list[tuple[int, int]] = []
        for node in ast.walk(method):
            if isinstance(node, ast.With) and any(
                _is_writer_lock(item.context_expr) for item in node.items
            ):
                locked.append((node.lineno, node.end_lineno or node.lineno))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (
                func.attr.startswith("_apply_")
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                apply_calls.append(node)
            elif "journal" in func.attr.lower():
                journal_lines.append(node.lineno)
        findings: list[Finding] = []
        for call in apply_calls:
            func = call.func
            assert isinstance(func, ast.Attribute)
            journaled = [line for line in journal_lines if line <= call.lineno]
            if not journaled:
                message = (
                    f"{cls.name}.{method.name} calls self.{func.attr}() "
                    "without a preceding journal append — applied state "
                    "would not survive crash recovery (validate -> "
                    "journal -> apply)"
                )
            elif not any(
                first <= line and call.lineno <= last
                for first, last in locked
                for line in journaled
            ):
                message = (
                    f"{cls.name}.{method.name} journals and calls "
                    f"self.{func.attr}() outside one `with "
                    f"self.{_WRITER_LOCK}:` block — a concurrent batch "
                    "could validate against the same state and journal a "
                    "write that cannot apply"
                )
            else:
                continue
            findings.append(module.finding(RULE, call, message))
        return findings
