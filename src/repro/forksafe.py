"""Fork-safety: library locks re-initialised in forked children.

The serving tier (:class:`repro.service.prefork.PreforkServer`) forks
worker processes off a parent whose sibling threads may be mid-search on
a shared engine — and a ``fork`` copies every lock in whatever state the
instant snapshot caught it. A lock held by a thread that does not exist
in the child would deadlock the first worker that touches it (the
emission cache, the full-text index, the engine's feedback state, ...).

The cure: lock *holders* register here at construction, and an
``os.register_at_fork`` child hook hands every registered holder a
fresh, unlocked lock right after the fork. This is sound because a
newly forked CPython child has exactly one thread — no thread in the
child can legitimately hold any of these locks — and because CPython's
GIL means other threads were paused at bytecode boundaries, so the
*data* the locks guard is structurally consistent (at worst a cache
entry is mid-refresh, which the cache semantics tolerate).

Registration uses a weak mapping: holders never leak, and the hook
walks only live objects. A leaf module (stdlib-only) so the lowest
layers (``repro.cache``) can use it.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Callable

__all__ = ["register_lock_holder"]

#: holder -> resetter(holder); the resetter installs fresh lock(s).
_HOLDERS: "weakref.WeakKeyDictionary[Any, Callable[[Any], None]]" = (
    weakref.WeakKeyDictionary()
)
_REGISTRY_LOCK = threading.Lock()


def register_lock_holder(holder: Any, resetter: Callable[[Any], None]) -> None:
    """Arrange for *resetter(holder)* to run in every forked child.

    The resetter must replace the holder's lock attribute(s) with fresh
    unlocked instances (and nothing else — child-side state repair
    beyond locks belongs to the holder's own fork contract).
    """
    with _REGISTRY_LOCK:
        _HOLDERS[holder] = resetter


def _reset_in_child() -> None:  # pragma: no cover - runs post-fork only
    # The child is single-threaded: no lock ordering concerns, and the
    # registry lock itself must be replaced first in case the fork
    # caught a sibling inside register_lock_holder.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()
    for holder, resetter in list(_HOLDERS.items()):
        resetter(holder)


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_reset_in_child)
