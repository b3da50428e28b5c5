"""A failure-rate window over one dependency's recent call outcomes.

The storage tier records the outcome of every read (here: the SQLite
backend's ``_read_sql``) into a :class:`FailureWindow`. The window only
reports — every call still runs — so rankings never depend on it; its
job is to say whether the dependency is currently failing, which feeds
the service's degraded-mode reporting (``/readyz``,
``QuestService.degradation``).

The dependency counts as failing while the window holds at least
:data:`MIN_OUTCOMES` outcomes and at least :data:`FAILURE_RATE` of them
failed. Recovery needs no timer: successes push the failures out of the
last :data:`WINDOW` outcomes.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import NamedTuple

from repro.forksafe import register_lock_holder

__all__ = ["FAILURE_RATE", "MIN_OUTCOMES", "WINDOW", "FailureWindow", "WindowCounts"]

#: Most-recent outcomes considered.
WINDOW = 32
#: Outcomes required before the rate means anything: one early failure
#: must not report the dependency as failing.
MIN_OUTCOMES = 5
#: Share of failed outcomes at which the dependency is failing.
FAILURE_RATE = 0.5


def _reset_window_lock(window: "FailureWindow") -> None:
    window._lock = threading.Lock()


class WindowCounts(NamedTuple):
    """One consistent reading of a window."""

    failed: int
    recorded: int

    @property
    def failing(self) -> bool:
        """Whether the dependency is failing (see the module docstring)."""
        return (
            self.recorded >= MIN_OUTCOMES
            and self.failed >= FAILURE_RATE * self.recorded
        )


class FailureWindow:
    """Thread-safe record of the last :data:`WINDOW` outcomes of *name*."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._outcomes: deque[bool] = deque(maxlen=WINDOW)
        self._lock = threading.Lock()
        # Windows ride into forked serving workers attached to the
        # backend; reset the lock in children (see repro.forksafe).
        register_lock_holder(self, _reset_window_lock)

    def record(self, ok: bool) -> None:
        """Record one call outcome (``True`` = success)."""
        with self._lock:
            self._outcomes.append(ok)

    def counts(self) -> WindowCounts:
        """Failed and recorded outcomes currently in the window."""
        with self._lock:
            return WindowCounts(self._outcomes.count(False), len(self._outcomes))
