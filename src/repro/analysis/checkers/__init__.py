"""Checker registry: one checker per enforced invariant."""

from __future__ import annotations

from repro.analysis.checkers.base import Checker, ModuleInfo
from repro.analysis.checkers.cachedhash import CachedHashChecker
from repro.analysis.checkers.cachekeys import CacheRevisionChecker
from repro.analysis.checkers.clocks import ClockDisciplineChecker
from repro.analysis.checkers.faultpoints import FaultPointChecker
from repro.analysis.checkers.forksafety import ForkSafetyChecker
from repro.analysis.checkers.journaling import JournalDisciplineChecker
from repro.analysis.checkers.lockorder import LockOrderChecker
from repro.analysis.checkers.sqlbinding import SqlBoundValuesChecker


def all_checkers() -> list[Checker]:
    """Fresh checker instances (checkers carry cross-file state)."""
    return [
        ForkSafetyChecker(),
        LockOrderChecker(),
        CacheRevisionChecker(),
        JournalDisciplineChecker(),
        FaultPointChecker(),
        ClockDisciplineChecker(),
        CachedHashChecker(),
        SqlBoundValuesChecker(),
    ]


__all__ = [
    "Checker",
    "ModuleInfo",
    "all_checkers",
    "CachedHashChecker",
    "CacheRevisionChecker",
    "ClockDisciplineChecker",
    "FaultPointChecker",
    "ForkSafetyChecker",
    "JournalDisciplineChecker",
    "LockOrderChecker",
    "SqlBoundValuesChecker",
]
