"""Exception hierarchy for the QUEST reproduction.

Every error raised by the library derives from :class:`QuestError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate the failing subsystem.
"""

from __future__ import annotations


class QuestError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(QuestError):
    """A schema definition is inconsistent (duplicate names, bad references)."""


class IntegrityError(QuestError):
    """A data modification violates a key or referential constraint."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the schema."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class QueryError(QuestError):
    """A logical query is malformed (bad joins, missing aliases, ...)."""


class ExecutionError(QuestError):
    """A well-formed query failed during evaluation."""


class AccessDeniedError(QuestError):
    """An operation requires instance access the wrapper does not provide.

    Raised by hidden-source (Deep Web) wrappers whenever the engine asks for
    data that only a full-access source could supply.
    """


class ModelError(QuestError):
    """An HMM is structurally invalid or numerically degenerate."""


class TrainingError(ModelError):
    """E-M training received unusable feedback data."""


class SteinerError(QuestError):
    """Steiner-tree discovery failed (disconnected terminals, empty graph)."""


class CombinationError(QuestError):
    """Dempster-Shafer combination failed (total conflict, empty evidence)."""


class WorkloadError(QuestError):
    """A benchmark workload definition is inconsistent."""


class ServiceError(QuestError):
    """A serving-tier (``repro.service``) operation failed."""


class ServiceOverloadedError(ServiceError):
    """The service shed a request under admission control.

    Raised by :meth:`repro.service.QuestService.search` when every
    execution slot is busy and the waiting queue is full — a fast-fail so
    latency-bounded callers can retry elsewhere instead of queueing
    unboundedly.
    """


class QuotaExceededError(ServiceError):
    """One tenant exhausted its admission quota.

    Raised by the per-tenant quota tier in front of
    :class:`repro.service.QuestService` when a single tenant's in-flight
    requests hit its cap while the service as a whole still has capacity
    — the HTTP front end maps it to 429 (the tenant should back off)
    rather than 503 (the service is overloaded).
    """

    def __init__(self, tenant: str, limit: int) -> None:
        super().__init__(
            f"tenant {tenant!r} exceeded its admission quota "
            f"({limit} concurrent requests)"
        )
        self.tenant = tenant
        self.limit = limit


class DeadlineExceededError(QuestError):
    """A request exhausted its time budget before producing any answer.

    Raised on the search path when a per-request deadline (the
    ``X-Quest-Deadline-Ms`` header or ``QuestSettings.default_deadline_ms``)
    expires while nothing salvageable has been computed yet. When partial
    results *do* exist at expiry, the pipeline returns them with
    ``trace.degraded`` set instead of raising — this error means the
    caller gets nothing, and the HTTP tier maps it to 504.
    """

    def __init__(self, budget_ms: float | None = None) -> None:
        detail = "" if budget_ms is None else f" ({budget_ms:.0f}ms budget)"
        super().__init__(f"request deadline exceeded{detail}")
        self.budget_ms = budget_ms



class FaultInjectedError(QuestError):
    """An error deliberately raised by the fault-injection harness.

    Only ever raised when a :class:`repro.faults.FaultPlan` is installed —
    production code paths never construct it themselves. Chaos tests that
    need a *specific* exception type (e.g. ``sqlite3.OperationalError``)
    configure the plan with that type instead.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class JournalError(QuestError):
    """A write-ahead mutation journal operation failed.

    Raised by :class:`repro.journal.MutationJournal` on misuse (append
    after close, unknown op) — the operational failures, as opposed to
    the on-disk corruption :class:`JournalCorruptError` reports.
    """


class JournalCorruptError(JournalError):
    """A mutation journal holds CRC-valid but unreplayable history.

    A torn *tail* (partial final record after a crash mid-append) is
    expected and silently truncated on open; this error is for the
    unexpected cases — an interior record whose payload is not a
    mutation, or a sequence-number gap — where silently dropping
    acknowledged history would be worse than refusing to start.
    """


class IndexArtifactError(QuestError):
    """A persisted index artifact is unreadable or stale.

    Raised by :meth:`repro.db.fulltext.FullTextIndex.load` when the
    ``.npz`` artifact's catalog header does not describe the live
    database (format, schema, field set, row counts or mutation counter
    mismatch) — a stale index must be rebuilt, never silently served.
    """
