"""Fixture-driven good/bad snippets for every questlint checker."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.checkers import (
    CacheRevisionChecker,
    ClockDisciplineChecker,
    FaultPointChecker,
    ForkSafetyChecker,
    JournalDisciplineChecker,
    LockOrderChecker,
)


def run_checker(tmp_path: Path, checker, files: dict[str, str]):
    """Write *files* under tmp_path, analyse them with one checker."""
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    result = analyze_paths([tmp_path], checkers=[checker], root=tmp_path)
    return result.findings


# -- fork-safety -----------------------------------------------------------


BAD_FORK = """
    import threading

    class Holder:
        def __init__(self):
            self._lock = threading.Lock()
"""

GOOD_FORK = """
    import threading
    from repro.forksafe import register_lock_holder

    def _reset(holder):
        holder._lock = threading.Lock()

    class Holder:
        def __init__(self):
            self._lock = threading.Lock()
            register_lock_holder(self, _reset)
"""


def test_fork_safety_flags_unregistered_lock(tmp_path):
    findings = run_checker(tmp_path, ForkSafetyChecker(), {"bad.py": BAD_FORK})
    assert len(findings) == 1
    assert findings[0].rule == "fork-safety"
    assert "Holder._lock" in findings[0].message


def test_fork_safety_accepts_registered_lock(tmp_path):
    assert run_checker(tmp_path, ForkSafetyChecker(), {"good.py": GOOD_FORK}) == []


BAD_MODULE_LOCK = """
    import threading

    if True:
        _LOCK = threading.Lock()

    def _helper():
        local = threading.Lock()  # a function local, not module state
        return local
"""

GOOD_MODULE_LOCK = """
    import os as _os
    from threading import RLock

    _LOCK: RLock = RLock()

    def _reset():
        global _LOCK
        _LOCK = RLock()

    _os.register_at_fork(after_in_child=_reset)
"""


def test_fork_safety_flags_module_lock_without_at_fork_hook(tmp_path):
    findings = run_checker(
        tmp_path, ForkSafetyChecker(), {"mod.py": BAD_MODULE_LOCK}
    )
    assert len(findings) == 1
    assert findings[0].rule == "fork-safety"
    assert "module-level _LOCK" in findings[0].message
    assert "register_at_fork" in findings[0].message


def test_fork_safety_accepts_module_lock_reset_at_fork(tmp_path):
    assert (
        run_checker(tmp_path, ForkSafetyChecker(), {"mod.py": GOOD_MODULE_LOCK})
        == []
    )


def test_fork_safety_sees_aliased_imports(tmp_path):
    source = """
        from threading import RLock

        class Holder:
            def __init__(self):
                self._lock = RLock()
    """
    findings = run_checker(tmp_path, ForkSafetyChecker(), {"alias.py": source})
    assert len(findings) == 1
    assert "RLock" in findings[0].message


# -- lock-order ------------------------------------------------------------


BAD_ORDER = """
    class Engine:
        def forward(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def backward(self):
            with self._b_lock:
                with self._a_lock:
                    pass
"""

GOOD_ORDER = """
    class Engine:
        def forward(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def backward(self):
            with self._a_lock:
                with self._b_lock:
                    pass
"""

SELF_DEADLOCK = """
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.Lock()

        def run(self):
            with self._lock:
                with self._lock:
                    pass
"""

RLOCK_NESTING = """
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.RLock()

        def run(self):
            with self._lock:
                with self._lock:
                    pass
"""


def test_lock_order_flags_abba_cycle(tmp_path):
    findings = run_checker(tmp_path, LockOrderChecker(), {"bad.py": BAD_ORDER})
    assert len(findings) == 1
    assert "cycle" in findings[0].message
    assert "_a_lock" in findings[0].message and "_b_lock" in findings[0].message


def test_lock_order_accepts_consistent_order(tmp_path):
    assert run_checker(tmp_path, LockOrderChecker(), {"good.py": GOOD_ORDER}) == []


def test_lock_order_flags_nested_nonreentrant(tmp_path):
    findings = run_checker(
        tmp_path, LockOrderChecker(), {"bad.py": SELF_DEADLOCK}
    )
    assert len(findings) == 1
    assert "self-deadlock" in findings[0].message


def test_lock_order_allows_nested_rlock(tmp_path):
    assert (
        run_checker(tmp_path, LockOrderChecker(), {"ok.py": RLOCK_NESTING}) == []
    )


def test_lock_order_cycle_across_files(tmp_path):
    one = """
        class A:
            def f(self):
                with self._first_lock:
                    with OTHER_LOCK:
                        pass
    """
    two = """
        class B:
            def g(self):
                with OTHER_LOCK:
                    with self._first_lock:
                        pass
    """
    # Same role ids only arise within one module/class, so build the
    # cycle through a shared module-level lock name imported as a global.
    findings = run_checker(
        tmp_path, LockOrderChecker(), {"one.py": one, "two.py": two}
    )
    # one.A._first_lock -> one.OTHER_LOCK and two.OTHER_LOCK ->
    # two.B._first_lock are distinct roles per module, so no cycle here:
    # this documents that role identity is module-qualified.
    assert findings == []


# -- cache-revision --------------------------------------------------------


BAD_CACHE = """
    class Scorer:
        def score(self, keyword, term):
            cached = self._score_cache.get((keyword, term))
            if cached is None:
                self._score_cache.put((keyword, term), 1.0)
            return cached
"""

GOOD_CACHE = """
    class Scorer:
        def score(self, keyword, term):
            key = (keyword, term, self._lexicon_version())
            cached = self._score_cache.get(key)
            if cached is None:
                self._score_cache.put(key, 1.0)
            return cached
"""

CONSTRUCTOR_NAMED_CACHE = """
    class Service:
        def __init__(self):
            self._results = TTLResultCache(64)

        def lookup(self, keywords, k):
            return self._results.get((keywords, k))
"""


def test_cache_revision_flags_unstamped_key(tmp_path):
    findings = run_checker(tmp_path, CacheRevisionChecker(), {"bad.py": BAD_CACHE})
    assert len(findings) == 2
    assert {f.rule for f in findings} == {"cache-revision"}


def test_cache_revision_accepts_stamped_key_via_local(tmp_path):
    assert (
        run_checker(tmp_path, CacheRevisionChecker(), {"good.py": GOOD_CACHE})
        == []
    )


def test_cache_revision_tracks_cache_constructor_attrs(tmp_path):
    findings = run_checker(
        tmp_path, CacheRevisionChecker(), {"svc.py": CONSTRUCTOR_NAMED_CACHE}
    )
    assert len(findings) == 1
    assert "_results.get" in findings[0].message


def test_cache_revision_ignores_plain_dict_get(tmp_path):
    source = """
        import os

        def f(mapping, key):
            return mapping.get(key), os.environ.get("HOME")
    """
    assert run_checker(tmp_path, CacheRevisionChecker(), {"ok.py": source}) == []


# -- journal-discipline ----------------------------------------------------


BAD_JOURNAL = """
    class MemoryBackend:
        def add_rows(self, table, rows):
            self._apply_add_rows(table, rows, 0)
"""

GOOD_JOURNAL = """
    class MemoryBackend:
        def add_rows(self, table, rows):
            seq = self._journal_append("add", table, rows)
            self._apply_add_rows(table, rows, seq)

        def _apply_add_rows(self, table, rows, seq):
            pass
"""


def test_journal_discipline_flags_unjournaled_apply(tmp_path):
    findings = run_checker(
        tmp_path, JournalDisciplineChecker(), {"bad.py": BAD_JOURNAL}
    )
    assert len(findings) == 1
    assert "_apply_add_rows" in findings[0].message


def test_journal_discipline_accepts_journal_then_apply(tmp_path):
    assert (
        run_checker(tmp_path, JournalDisciplineChecker(), {"good.py": GOOD_JOURNAL})
        == []
    )


def test_journal_discipline_ignores_non_backend_classes(tmp_path):
    source = """
        class Helper:
            def run(self):
                self._apply_add_rows("t", [], 0)
    """
    assert (
        run_checker(tmp_path, JournalDisciplineChecker(), {"ok.py": source}) == []
    )


# -- fault-points ----------------------------------------------------------


REGISTRY = """
    POINTS = (
        "storage.query",
        "worker.start",
    )
"""

GOOD_FIRES = """
    from repro import faults

    def query():
        faults.fire("storage.query")

    def boot():
        faults.fire("worker.start")
"""

TYPO_FIRE = """
    from repro import faults

    def query():
        faults.fire("storage.qurey")

    def boot():
        faults.fire("worker.start")
"""


def test_fault_points_flags_typo_and_unfired(tmp_path):
    findings = run_checker(
        tmp_path,
        FaultPointChecker(),
        {"faults.py": REGISTRY, "code.py": TYPO_FIRE},
    )
    messages = [f.message for f in findings]
    assert any("storage.qurey" in m and "not declared" in m for m in messages)
    assert any("storage.query" in m and "never fired" in m for m in messages)
    assert len(findings) == 2


def test_fault_points_accepts_matching_registry(tmp_path):
    findings = run_checker(
        tmp_path,
        FaultPointChecker(),
        {"faults.py": REGISTRY, "code.py": GOOD_FIRES},
    )
    assert findings == []


def test_fault_points_silent_without_registry(tmp_path):
    findings = run_checker(
        tmp_path, FaultPointChecker(), {"code.py": TYPO_FIRE}
    )
    assert findings == []


# -- clock-discipline ------------------------------------------------------


BAD_CLOCK = """
    import time

    def deadline(timeout):
        return time.monotonic() + timeout
"""

GOOD_CLOCK = """
    import time
    from typing import Callable

    class Deadline:
        def __init__(self, clock: Callable[[], float] = time.monotonic):
            self._clock = clock

        def remaining(self, until):
            return until - self._clock()
"""


def test_clock_discipline_flags_direct_read_in_service(tmp_path):
    findings = run_checker(
        tmp_path, ClockDisciplineChecker(), {"service/mod.py": BAD_CLOCK}
    )
    assert len(findings) == 1
    assert "time.monotonic" in findings[0].message


def test_clock_discipline_allows_injected_clock(tmp_path):
    assert (
        run_checker(
            tmp_path, ClockDisciplineChecker(), {"resilience/mod.py": GOOD_CLOCK}
        )
        == []
    )


def test_clock_discipline_ignores_unguarded_layers(tmp_path):
    assert (
        run_checker(
            tmp_path, ClockDisciplineChecker(), {"kernels/mod.py": BAD_CLOCK}
        )
        == []
    )


def test_clock_discipline_flags_from_import_alias(tmp_path):
    source = """
        from time import monotonic

        def now():
            return monotonic()
    """
    findings = run_checker(
        tmp_path, ClockDisciplineChecker(), {"pipeline/mod.py": source}
    )
    assert len(findings) == 1


# -- whole-tree self-gate --------------------------------------------------


REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_src_is_questlint_clean():
    """The acceptance gate, enforced from inside tier-1: the real tree
    analyses clean with no baseline entries at all."""
    result = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    assert result.files_checked > 100


def test_repo_fixture_violation_fails(tmp_path):
    """Introducing any one violation flips the exit code — the negative
    half of the acceptance criterion."""
    (tmp_path / "bad.py").write_text(
        "import threading\n\n"
        "class H:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    )
    result = analyze_paths([tmp_path], root=tmp_path)
    assert result.exit_code == 1
    assert any(f.rule == "fork-safety" for f in result.findings)
