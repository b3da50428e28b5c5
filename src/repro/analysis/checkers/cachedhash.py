"""cached-hash: a hash stored at construction is recomputed on unpickle.

Hot hypothesis and column types (``ColumnRef``, ``Configuration``,
``Interpretation``) compute their hash once, in ``__post_init__``, and
``__hash__`` returns the stored field. String hashes are salted per
process (``PYTHONHASHSEED``), so pickle's default state restore would
carry the *writer's* integer into the reader: the unpickled object
compares equal to a fresh one but hashes differently, and every dict or
set lookup with it misses.

Mechanically: a class whose ``__hash__`` returns ``self.<field>`` where
``__post_init__`` assigns that field (``object.__setattr__(self,
"<field>", ...)`` or ``self.<field> = ...``) must rebuild on unpickle —
define ``__reduce__`` / ``__reduce_ex__`` (reconstruct through the
constructor) or a ``__setstate__`` that assigns the field again (or
calls ``self.__post_init__()``).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    Checker,
    ModuleInfo,
    class_functions,
    is_self_attribute,
)
from repro.analysis.findings import Finding

RULE = "cached-hash"
REBUILDERS = ("__reduce__", "__reduce_ex__")


def _returned_self_fields(method: ast.AST) -> set[str]:
    """Fields ``f`` of every ``return self.f`` in *method*."""
    return {
        node.value.attr
        for node in ast.walk(method)
        if isinstance(node, ast.Return)
        and node.value is not None
        and is_self_attribute(node.value)
    }


def _assigned_self_fields(method: ast.AST) -> set[str]:
    """Fields *method* sets on ``self`` (plainly or via ``object.__setattr__``).

    A call to ``self.__post_init__()`` counts as assigning every field,
    since it re-runs the construction-time computation.
    """
    fields: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            fields.update(t.attr for t in targets if is_self_attribute(t))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "__setattr__" and len(node.args) >= 2:
                receiver, name = node.args[0], node.args[1]
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                    and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)
                ):
                    fields.add(name.value)
            elif node.func.attr == "__post_init__" and is_self_attribute(node.func):
                fields.add("*")
    return fields


class CachedHashChecker(Checker):
    rule = RULE
    description = (
        "a class whose __hash__ returns a field set in __post_init__ must "
        "recompute it on unpickle (__reduce__ or __setstate__)"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {m.name: m for m in class_functions(node)}
            if "__hash__" not in methods or "__post_init__" not in methods:
                continue
            cached = _returned_self_fields(methods["__hash__"]) & _assigned_self_fields(
                methods["__post_init__"]
            )
            if not cached or any(name in methods for name in REBUILDERS):
                continue
            restored = (
                _assigned_self_fields(methods["__setstate__"])
                if "__setstate__" in methods
                else set()
            )
            for name in sorted(cached):
                if name in restored or "*" in restored:
                    continue
                findings.append(
                    module.finding(
                        RULE,
                        methods["__hash__"],
                        f"{node.name}.__hash__ returns self.{name}, computed "
                        "in __post_init__, but unpickling would restore the "
                        "writer's value (string hashes are salted per "
                        "process) — define __reduce__ to rebuild through "
                        "the constructor, or recompute it in __setstate__",
                    )
                )
        return findings
