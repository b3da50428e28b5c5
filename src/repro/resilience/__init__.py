"""Resilience primitives: deadlines, failure windows, retries, health.

The building blocks the serving and storage tiers compose into graceful
degradation — see ARCHITECTURE.md "Resilience tier". Everything here is
dependency-free (stdlib only) and injectable (clocks, RNG seeds) or
driven by recorded outcomes alone, so chaos tests replay each one
deterministically.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.health import HealthRegistry, process_health
from repro.resilience.retry import RetryPolicy
from repro.resilience.window import FailureWindow

__all__ = [
    "Deadline",
    "FailureWindow",
    "HealthRegistry",
    "RetryPolicy",
    "process_health",
]
