"""Process-level degradation marks, surfaced through ``/readyz``.

Anything that silently switches the process onto a slower-but-correct
path (artifact corruption → an index rebuilt in-process, persistent
storage failures → stale-cache serving) records a named mark here; the
HTTP tier folds the marks into the ``ok`` / ``degraded`` / ``unhealthy``
readiness answer. Marks are per-process — forked serving workers each
report their own state, so one worker running on a fallback index shows
up without tainting its siblings.
"""

from __future__ import annotations

import threading

from repro.forksafe import register_lock_holder

__all__ = ["HealthRegistry", "process_health"]


def _reset_health_lock(registry: "HealthRegistry") -> None:
    registry._lock = threading.Lock()


class HealthRegistry:
    """Thread-safe named degradation marks for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # The module-global registry exists before the prefork fork;
        # children must get an unheld lock (see repro.forksafe).
        register_lock_holder(self, _reset_health_lock)
        self._marks: dict[str, str] = {}

    def mark(self, reason: str, detail: str = "") -> None:
        """Record (or refresh) one degradation mark."""
        with self._lock:
            self._marks[reason] = detail

    def reset(self) -> None:
        """Drop every mark (test isolation)."""
        with self._lock:
            self._marks.clear()

    def degraded(self) -> bool:
        """Whether any mark is active."""
        with self._lock:
            return bool(self._marks)

    def reasons(self) -> dict[str, str]:
        """A snapshot of the active marks (reason -> detail)."""
        with self._lock:
            return dict(self._marks)


#: The per-process registry every tier reports into.
process_health = HealthRegistry()
