"""clock-discipline: deadline-aware layers never read the clock directly.

The resilience tier's determinism rests on injected clocks: ``Deadline``,
the service's metrics and ranking cache and the prefork supervisor all
take a ``clock`` callable defaulting to ``time.monotonic``, so chaos tests can
drive expiry without sleeping. A direct ``time.time()`` /
``time.monotonic()`` *call* inside ``pipeline/``, ``resilience/`` or
``service/`` bypasses that seam — the test can no longer make that code
path believe time has passed.

Only calls are flagged. ``clock: Callable[[], float] = time.monotonic``
default parameters and ``self._clock = clock`` assignments are
*references* — they are the seam — and pass untouched. ``time.sleep``
and ``time.perf_counter`` (trace/bench timing, not deadline logic) are
out of scope.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, ModuleInfo, resolved_call_name
from repro.analysis.findings import Finding

RULE = "clock-discipline"
GUARDED_LAYERS = ("pipeline", "resilience", "service")
CLOCK_CALLS = ("time.time", "time.monotonic")


class ClockDisciplineChecker(Checker):
    rule = RULE
    description = (
        "pipeline/resilience/service code must use injected clocks, not "
        "direct time.time()/time.monotonic() calls"
    )

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        parts = module.rel_path.replace("\\", "/").split("/")
        if not any(layer in parts for layer in GUARDED_LAYERS):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolved_call_name(module, node)
            if resolved in CLOCK_CALLS:
                findings.append(
                    module.finding(
                        RULE,
                        node,
                        f"direct {resolved}() read in a deadline-aware "
                        "layer — inject a clock callable instead (see "
                        "repro.resilience.deadline.Deadline) so tests can "
                        "drive expiry deterministically",
                    )
                )
        return findings
