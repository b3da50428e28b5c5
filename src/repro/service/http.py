"""The HTTP front door: a stdlib/asyncio network tier over ``QuestService``.

Nothing in the serving stack listened on a socket until now —
:class:`~repro.service.service.QuestService` is an in-process object.
This module puts a wire protocol in front of it with zero dependencies
beyond the standard library: one asyncio server per process, a minimal
HTTP/1.1 request parser (keep-alive, ``Content-Length`` bodies), and a
fixed route table:

- ``GET /search?q=...&k=...`` (or ``POST /search`` with a JSON body) —
  answer a keyword query; the JSON response carries the ranked
  explanations with their probabilities and SQL text, so rank identity
  against a direct engine call is checkable bit for bit.
- ``GET /metrics`` — the service's :class:`MetricsSnapshot` plus the
  quota tier's counters, as JSON.
- ``GET /healthz`` — liveness: the process is up and the event loop
  turns.
- ``GET /readyz`` — readiness: the engine behind the service is built
  and the server accepts traffic (503 while draining).

Error mapping follows the shedding semantics of the tiers underneath:
a per-tenant quota refusal (:class:`QuotaExceededError`) is **429** with
``Retry-After`` — *you* should back off; a service-wide admission shed
(:class:`ServiceOverloadedError`) is **503** ``overloaded`` with
``Retry-After`` — *we* are saturated; a storage failure with no stale
ranking to fall back on (:class:`ExecutionError`) is **503**
``storage_unavailable`` with ``Retry-After`` — the query was fine, the
data behind it was not reachable; an exhausted request budget
(:class:`DeadlineExceededError`) is **504**; an unusable query (any
other :class:`QuestError`) is 400; everything else is 500. Every error
body is a structured envelope — ``{"error": {"code", "message",
"request_id", ...}}`` — so clients and log pipelines key on stable
codes, never on message prose. A request
budget rides in on the ``X-Quest-Deadline-Ms`` header; degraded and
revision-stale answers are flagged in the payload (stale ones also
carry an RFC 7234 ``Warning`` header).

The engine's ``search`` is CPU-bound Python, so the event loop never
runs it: requests are handed to a thread pool sized to the service's
admission house, and the loop stays free to accept, parse and time out
sockets. Graceful drain (`close()`) stops accepting, lets in-flight
requests finish within a deadline, and only then tears the loop down —
the preforked supervisor drives exactly this on SIGTERM.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    QuestError,
    QuotaExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.quota import TenantQuotas
from repro.service.service import QuestService, ServiceResponse

__all__ = ["HttpServerSettings", "QuestHttpServer", "explanation_payload"]

#: Upper bound on request head (request line + headers) bytes.
_MAX_HEAD_BYTES = 16 * 1024
#: Upper bound on request body bytes (search payloads are tiny).
_MAX_BODY_BYTES = 64 * 1024
#: Seconds an idle keep-alive connection may sit between requests.
_KEEPALIVE_TIMEOUT_S = 30.0
#: ``Retry-After`` seconds advertised on 429/503 answers.
_RETRY_AFTER_S = 1

#: The header tenants identify themselves with (case-insensitive).
TENANT_HEADER = "x-quest-tenant"
#: The header carrying the caller's request budget in milliseconds.
DEADLINE_HEADER = "x-quest-deadline-ms"
#: ``Warning`` header value stamped on revision-stale answers (RFC 7234
#: warn-code 110, "Response is Stale").
_STALE_WARNING = '110 quest "stale result: storage degraded"'


@dataclass(frozen=True)
class HttpServerSettings:
    """Network-tier knobs (the serving-tier knobs live on the service).

    Attributes:
        host: interface to bind.
        port: TCP port (0 = ephemeral, read back via ``port``).
        executor_threads: thread-pool width for blocking engine calls;
            defaults to the service's whole admission house so a full
            house plus its queue never waits on a pool slot.
        drain_timeout_s: seconds ``close()`` waits for in-flight
            requests before cancelling them.
    """

    host: str = "127.0.0.1"
    port: int = 0
    executor_threads: int | None = None
    drain_timeout_s: float = 10.0


@dataclass(frozen=True)
class _Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Mapping[str, list[str]]
    headers: Mapping[str, str]
    body: bytes
    close: bool


class _BadRequest(Exception):
    """The bytes on the wire were not a usable HTTP request."""


def _json_safe(value: Any) -> Any:
    """*value* if JSON can carry it, else its ``repr``.

    Engine revisions are opaque composite objects (e.g. a tuple closing
    over the settings object); the wire format only promises operators a
    stable *identifier*, not a decomposable structure.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _error(
    code: str, message: str, request_id: str, **extra: Any
) -> dict[str, Any]:
    """The structured error envelope every non-2xx body uses."""
    envelope: dict[str, Any] = {
        "code": code,
        "message": message,
        "request_id": request_id,
    }
    envelope.update(extra)
    return {"error": envelope}


def explanation_payload(explanations: tuple[Any, ...]) -> list[dict[str, Any]]:
    """The JSON shape of a ranking, identical for every serving path.

    Probabilities are emitted through ``repr``-exact JSON floats, so two
    rankings serialise identically iff they are bit-identical — the
    property the prefork tests and the serving storm's rank-identity
    assertion lean on. Multi-source engines rank ``(source, Explanation)``
    pairs; the source label is carried through.
    """
    payload: list[dict[str, Any]] = []
    for rank, item in enumerate(explanations):
        source = None
        explanation = item
        if isinstance(item, tuple) and len(item) == 2:
            source, explanation = item
        entry: dict[str, Any] = {
            "rank": rank,
            "probability": explanation.probability,
            "sql": explanation.sql,
            "result_count": explanation.result_count,
        }
        if source is not None:
            entry["source"] = str(source)
        payload.append(entry)
    return payload


class QuestHttpServer:
    """One process's HTTP server over one :class:`QuestService`.

    Args:
        service: the serving tier to answer through.
        settings: network knobs; defaults to :class:`HttpServerSettings`.
        quotas: the per-tenant admission tier; ``None`` disables
            per-tenant limits (the service-wide controller still
            applies).
        sock: an already-bound listening socket to accept on instead of
            binding ``host:port`` — the preforked accept model, where
            every worker inherits the parent's listener fd.
    """

    def __init__(
        self,
        service: QuestService,
        settings: HttpServerSettings | None = None,
        quotas: TenantQuotas | None = None,
        sock: socket.socket | None = None,
    ) -> None:
        self.service = service
        self.settings = settings if settings is not None else HttpServerSettings()
        self.quotas = quotas
        self._sock = sock
        self._server: asyncio.base_events.Server | None = None
        threads = self.settings.executor_threads
        if threads is None:
            threads = (
                service.settings.max_concurrent + service.settings.max_queue
            )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, threads), thread_name_prefix="quest-http"
        )
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._accepting = False
        self._ready = False
        #: Monotone per-process counter behind request ids: correlating a
        #: client-visible error envelope with a worker's logs needs both
        #: the pid and a within-process ordinal.
        self._request_ids = itertools.count()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind (or adopt) the listener and begin accepting."""
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.settings.host,
                port=self.settings.port,
            )
        self._accepting = True
        self._ready = True

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Accept until cancelled (the worker main loop parks here)."""
        if self._server is None:
            raise ServiceError("server is not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down.

        New connections are refused immediately; requests already being
        answered get ``drain_timeout_s`` to complete (SIGTERM semantics —
        a deploy must not eat answers already being computed).
        """
        self._ready = False
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.settings.drain_timeout_s
            )
        except asyncio.TimeoutError:  # pragma: no cover - pathological body
            pass
        self._executor.shutdown(wait=False)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=_KEEPALIVE_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break
                except _BadRequest as exc:
                    await self._write_response(
                        writer,
                        400,
                        _error("bad_request", str(exc), self._request_id()),
                        close=True,
                    )
                    break
                if request is None:
                    break
                self._in_flight += 1
                self._idle.clear()
                try:
                    status, payload, extra = await self._dispatch(request)
                finally:
                    self._in_flight -= 1
                    if self._in_flight == 0:
                        self._idle.set()
                close = request.close or not self._accepting
                await self._write_response(
                    writer, status, payload, close=close, extra=extra
                )
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        """Parse one request off the stream (``None`` on clean EOF)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest("request head too large") from exc
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between keep-alive requests
            raise
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError as exc:
                raise _BadRequest("malformed Content-Length") from exc
            if n < 0 or n > _MAX_BODY_BYTES:
                raise _BadRequest("request body too large")
            body = await reader.readexactly(n)
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )
        return _Request(
            method=method.upper(),
            path=unquote(split.path),
            query=parse_qs(split.query),
            headers=headers,
            body=body,
            close=close,
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        close: bool,
        extra: Mapping[str, str] | None = None,
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }
        body = json.dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    def _request_id(self) -> str:
        return f"{os.getpid():x}-{next(self._request_ids):06x}"

    async def _dispatch(
        self, request: _Request
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        request_id = self._request_id()
        try:
            return await self._route(request, request_id)
        except Exception as exc:
            # The last-resort guard: a bug anywhere in a route handler
            # becomes a structured 500 on a still-healthy keep-alive
            # connection, never a dropped socket.
            return (
                500,
                _error(
                    "internal",
                    f"{type(exc).__name__}: {exc}",
                    request_id,
                ),
                None,
            )

    async def _route(
        self, request: _Request, request_id: str
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        route = (request.method, request.path)
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed(request_id)
            # Liveness: the loop turns, so the process is alive — a
            # degraded process is still a live one (200, state inside).
            state = self._degradation()
            status = "degraded" if state["degraded"] else "ok"
            return 200, {"status": status, "pid": os.getpid()}, None
        if request.path == "/readyz":
            if request.method != "GET":
                return self._method_not_allowed(request_id)
            if not self._ready:
                return (
                    503,
                    {
                        "status": "unhealthy",
                        "reasons": ["draining"],
                        "pid": os.getpid(),
                    },
                    None,
                )
            state = self._degradation()
            status = "degraded" if state["degraded"] else "ok"
            return (
                200,
                {
                    "status": status,
                    "reasons": state["reasons"],
                    "pid": os.getpid(),
                },
                None,
            )
        if route == ("GET", "/metrics"):
            return 200, self._metrics_payload(), None
        if request.path == "/search":
            if request.method not in ("GET", "POST"):
                return self._method_not_allowed(request_id)
            return await self._search(request, request_id)
        return (
            404,
            _error("not_found", f"no route for {request.path}", request_id),
            None,
        )

    @staticmethod
    def _method_not_allowed(
        request_id: str,
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        return (
            405,
            _error("method_not_allowed", "method not allowed", request_id),
            None,
        )

    def _degradation(self) -> dict[str, Any]:
        degradation = getattr(self.service, "degradation", None)
        if degradation is None:  # a bare engine shim in tests
            return {"degraded": False, "reasons": []}
        return degradation()

    def _metrics_payload(self) -> dict[str, Any]:
        snapshot = self.service.metrics()
        payload: dict[str, Any] = {
            "pid": os.getpid(),
            "service": {
                field: _json_safe(getattr(snapshot, field))
                for field in snapshot.__dataclass_fields__
            },
            "degradation": self._degradation(),
        }
        if self.quotas is not None:
            payload["quota"] = {
                "tenants": self.quotas.tenants,
                "in_flight": self.quotas.in_flight(),
                "rejections": self.quotas.rejections,
            }
        return payload

    # -- the search endpoint -------------------------------------------------

    async def _search(
        self, request: _Request, request_id: str
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        try:
            query, k = self._search_arguments(request)
            deadline_ms = self._deadline_argument(request)
        except _BadRequest as exc:
            return 400, _error("bad_request", str(exc), request_id), None
        tenant = request.headers.get(TENANT_HEADER) or None
        loop = asyncio.get_running_loop()
        retry = {"Retry-After": str(_RETRY_AFTER_S)}
        try:
            response = await loop.run_in_executor(
                self._executor,
                self._search_blocking,
                tenant,
                query,
                k,
                deadline_ms,
            )
        except QuotaExceededError as exc:
            return (
                429,
                _error(
                    "quota_exceeded", str(exc), request_id, tenant=exc.tenant
                ),
                retry,
            )
        except ServiceOverloadedError as exc:
            return 503, _error("overloaded", str(exc), request_id), retry
        except ExecutionError as exc:
            return (
                503,
                _error("storage_unavailable", str(exc), request_id),
                retry,
            )
        except DeadlineExceededError as exc:
            return (
                504,
                _error(
                    "deadline_exceeded",
                    str(exc),
                    request_id,
                    budget_ms=exc.budget_ms,
                ),
                None,
            )
        except QuestError as exc:
            return 400, _error("bad_request", str(exc), request_id), None
        except Exception as exc:  # pragma: no cover - engine bugs
            return (
                500,
                _error(
                    "internal", f"{type(exc).__name__}: {exc}", request_id
                ),
                None,
            )
        extra = {"Warning": _STALE_WARNING} if response.stale else None
        return 200, self._search_payload(response, request_id), extra

    @staticmethod
    def _deadline_argument(request: _Request) -> float | None:
        raw = request.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            deadline_ms = float(raw)
        except ValueError as exc:
            raise _BadRequest(
                f"{DEADLINE_HEADER} must be a number of milliseconds, "
                f"got {raw!r}"
            ) from exc
        if not math.isfinite(deadline_ms) or deadline_ms <= 0:
            raise _BadRequest(
                f"{DEADLINE_HEADER} must be a positive finite number of "
                f"milliseconds, got {raw!r}"
            )
        return deadline_ms

    def _search_blocking(
        self,
        tenant: str | None,
        query: str,
        k: int | None,
        deadline_ms: float | None,
    ) -> ServiceResponse:
        """The blocking slice, run on the executor: quota gate + search.

        The whole gate-and-search runs off the event loop so a tenant's
        queued requests block an executor thread, never the accept loop.
        """

        def run() -> ServiceResponse:
            # deadline_ms is forwarded only when the caller sent the
            # header, so stand-in search callables with the plain
            # ``(query, k=None)`` signature keep working.
            if deadline_ms is not None:
                return self.service.search(query, k=k, deadline_ms=deadline_ms)
            return self.service.search(query, k=k)

        if self.quotas is not None:
            with self.quotas.admit(tenant):
                return run()
        return run()

    def _search_arguments(self, request: _Request) -> tuple[str, int | None]:
        query: str | None = None
        k: Any = None
        if request.method == "GET":
            values = request.query.get("q") or request.query.get("query")
            if values:
                query = values[0]
            k_values = request.query.get("k")
            if k_values:
                k = k_values[0]
        else:
            if request.body:
                try:
                    payload = json.loads(request.body.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise _BadRequest(f"malformed JSON body: {exc}") from exc
                if not isinstance(payload, dict):
                    raise _BadRequest("JSON body must be an object")
                query = payload.get("q") or payload.get("query")
                k = payload.get("k")
        if not query or not isinstance(query, str):
            raise _BadRequest("missing query: pass ?q=... or a JSON {'q': ...}")
        if k is not None:
            try:
                k = int(k)
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"k must be an integer, got {k!r}") from exc
            if k <= 0:
                raise _BadRequest(f"k must be positive, got {k}")
        return query, k

    def _search_payload(
        self, response: ServiceResponse, request_id: str
    ) -> dict[str, Any]:
        return {
            "query": response.query,
            "keywords": list(response.keywords),
            "k": response.k,
            "source": response.source,
            "latency_s": response.latency_s,
            "degraded": response.degraded,
            "stale": response.stale,
            "stale_revision": _json_safe(response.stale_revision),
            "request_id": request_id,
            "pid": os.getpid(),
            "results": explanation_payload(response.explanations),
        }

    def __repr__(self) -> str:
        bound = "unbound"
        if self._server is not None and self._server.sockets:
            bound = f"{self.settings.host}:{self.port}"
        return f"QuestHttpServer({bound}, service={self.service!r})"
