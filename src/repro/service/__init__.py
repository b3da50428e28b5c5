"""The serving tier: concurrent, latency-bounded query answering.

``QuestService`` wraps one engine (single- or multi-source) with the
tiers an interactive deployment needs — one ranking cache (fresh hits
within a TTL at the current engine version, stale fallback across
revisions when storage fails), in-flight request coalescing, admission
control with fast-fail shedding, and an operator metrics snapshot. See :mod:`repro.service.service` for the
full story.

On top of it sits the network tier: :class:`QuestHttpServer` puts a
stdlib-asyncio HTTP front end over one service (with per-tenant
:class:`TenantQuotas` admission), and :class:`PreforkServer` runs N of
those as supervised forked workers mmap-sharing one columnar index
artifact. See :mod:`repro.service.http` and
:mod:`repro.service.prefork`.

Cutting across all three is the resilience tier
(:mod:`repro.resilience`): per-request deadlines propagated down to the
Steiner search (``X-Quest-Deadline-Ms`` → 504 or degraded best-so-far
answers), a window over the last SQLite read outcomes that reports
failing storage through ``/readyz`` (it refuses no call, so rankings
never depend on it), revision-stale serving when storage fails outright
(503 ``storage_unavailable`` when there is nothing to serve), and
jittered-exponential worker respawn backoff — all testable
deterministically through :mod:`repro.faults`.
"""

from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.resilience import Deadline, RetryPolicy, process_health
from repro.service.admission import AdmissionController
from repro.service.http import HttpServerSettings, QuestHttpServer
from repro.service.metrics import MetricsSnapshot, ServiceMetrics
from repro.service.prefork import (
    PreforkServer,
    PreforkSettings,
    shared_artifact_engine,
)
from repro.service.quota import TenantQuotas
from repro.service.service import QuestService, ServiceResponse, ServiceSettings
from repro.service.singleflight import SingleFlight

__all__ = [
    "AdmissionController",
    "Deadline",
    "DeadlineExceededError",
    "HttpServerSettings",
    "MetricsSnapshot",
    "PreforkServer",
    "PreforkSettings",
    "QuestHttpServer",
    "QuestService",
    "QuotaExceededError",
    "RetryPolicy",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "ServiceResponse",
    "ServiceSettings",
    "SingleFlight",
    "TenantQuotas",
    "process_health",
    "shared_artifact_engine",
]
