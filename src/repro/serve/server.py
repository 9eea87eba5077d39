"""The asyncio serving loop: admission, deadlines, degradation, drain.

:class:`AnalysisServer` glues the pieces together in one place so the
degradation ladder (DESIGN.md §13) is readable top to bottom:

1. **deadline** — every engine-backed request runs under a child
   :class:`~repro.core.runcontrol.RunController` whose budget is
   ``min(request timeout, parent remaining)``; the engine stops at the
   next snapshot boundary and the response is a 200 carrying the covered
   prefix and a typed ``degraded`` marker.
2. **shed** — admission is bounded twice before any work starts: by
   queue depth (workers + waiting) and by the byte-denominated memory
   budget (headers-only worst-case estimate against
   :class:`~repro.core.runcontrol.MemoryBudget`).  Either ceiling sheds
   with 429 + Retry-After.  Per-tenant limits
   (:class:`~repro.serve.ratelimit.TenantRateLimiter`) shed the same way.
3. **stale** — a tripped circuit breaker fails slices fast (503) while
   figure aggregates keep serving from the last good cache, marked
   ``X-Degraded: stale``, until a half-open probe revalidates.
4. **503** — draining (SIGTERM) refuses new work with 503 + Retry-After
   while in-flight requests finish (or are cancelled) within the grace
   period.

Live archives (DESIGN.md §14): with ``--follow`` an
:class:`~repro.serve.follower.ArchiveFollower` swaps new generations in
off the request path — its re-warm's reserved bytes join the admission
projection so swaps shed rather than OOM.  Without a follower, responses
from a superseded generation carry ``X-Archive-Stale`` naming the newer
published generation.

The server never installs signal handlers — the CLI does, per the
``runcontrol`` contract.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.core.runcontrol import MemoryBudget, RunController
from repro.serve.encode import dumps
from repro.serve.errors import ServeError
from repro.serve.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.serve.ratelimit import TenantRateLimiter
from repro.serve.service import SLICE_DIMENSIONS, ArchiveService

__all__ = ["AnalysisServer", "ServerConfig", "ServerStats"]


@dataclass
class ServerConfig:
    """Serving policy — every settable ceiling in one place."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests/benches); the CLI default is 8765
    #: engine-backed requests running concurrently (worker threads)
    max_inflight: int = 4
    #: admitted-but-waiting requests beyond the workers; past this, shed
    queue_depth: int = 8
    #: per-request wall-clock budget (the engine degrades at this point)
    request_timeout_s: float = 10.0
    #: extra slack before a stuck worker turns into a 504 (the engine
    #: usually degrades at the deadline; this catches a truly wedged task)
    hard_timeout_slack_s: float = 2.0
    #: SIGTERM drain budget for in-flight requests
    grace_seconds: float = 5.0
    #: byte budget for admission (None = unbounded)
    memory_budget: MemoryBudget | None = None
    #: per-tenant requests per window (None = unlimited)
    tenant_limit: int | None = 64
    tenant_window_s: float = 1.0


@dataclass
class ServerStats:
    """Cheap counters surfaced at ``/v1/stats`` and by the load bench."""

    requests: int = 0
    responses: dict[int, int] = field(default_factory=dict)
    shed_queue: int = 0
    shed_memory: int = 0
    shed_tenant: int = 0
    degraded: int = 0
    stale_served: int = 0
    hard_timeouts: int = 0
    draining_refused: int = 0
    connections: int = 0

    def note(self, status: int) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "responses": {str(k): v for k, v in sorted(self.responses.items())},
            "shed_queue": self.shed_queue,
            "shed_memory": self.shed_memory,
            "shed_tenant": self.shed_tenant,
            "degraded": self.degraded,
            "stale_served": self.stale_served,
            "hard_timeouts": self.hard_timeouts,
            "draining_refused": self.draining_refused,
            "connections": self.connections,
        }


#: idle keep-alive read timeout per connection, in seconds (read by
#: ``_on_connection``)
KEEPALIVE_TIMEOUT_S = 10.0


class AnalysisServer:
    """Serve one :class:`~repro.serve.service.ArchiveService` over HTTP."""

    def __init__(
        self,
        service: ArchiveService,
        config: ServerConfig | None = None,
        controller: RunController | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        if self.config.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.config.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.controller = (
            controller
            if controller is not None
            else RunController(
                memory_budget=self.config.memory_budget,
                grace_seconds=self.config.grace_seconds,
            )
        )
        if self.config.memory_budget is None:
            self.config.memory_budget = self.controller.memory_budget
        self.stats = ServerStats()
        self.limiter = TenantRateLimiter(
            self.config.tenant_limit, self.config.tenant_window_s
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._admitted = 0  # engine-backed requests admitted, not yet done
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._idle = asyncio.Event()
        self._idle.set()
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (the service must be warm already)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, reason: str = "drain requested") -> None:
        """Graceful stop: refuse new work, let in-flight finish, then cut.

        New requests get 503 + Retry-After immediately; in-flight ones may
        finish within ``grace_seconds``, after which the root controller's
        token is cancelled — the linked per-request tokens turn remaining
        engine passes into degraded responses at the next snapshot
        boundary — and surviving connections are closed.
        """
        self._draining = True
        if self._server is not None:
            # close() alone stops accepting; wait_closed() must come LAST —
            # since 3.12.1 it also waits for every connection handler, so
            # awaiting it here would let one idle keep-alive client stall
            # the drain past the grace period
            self._server.close()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.grace_seconds
            )
        except asyncio.TimeoutError:
            # grace expired: cancel every in-flight request controller via
            # the linked tokens, then give them a beat to unwind
            self.controller.token.cancel(reason)
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- connection loop -----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await read_request(
                        reader, timeout=KEEPALIVE_TIMEOUT_S
                    )
                except HttpError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            json_body(
                                {"error": exc.code, "message": exc.message}
                            ),
                            close=True,
                        )
                    )
                    self.stats.requests += 1
                    self.stats.note(exc.status)
                    break
                except asyncio.TimeoutError:
                    break  # idle keep-alive expired; close quietly
                if request is None:
                    break
                status, payload = await self._respond(request, writer)
                if not request.keep_alive or self._draining:
                    break
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                # a drain cancel can land while this teardown await is in
                # flight; the socket is closing either way, and letting it
                # out of a done-callback makes 3.11's streams noisy
                asyncio.CancelledError,
            ):
                pass

    async def _respond(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> tuple[int, bytes]:
        self.stats.requests += 1
        head_only = request.method == "HEAD"
        try:
            status, body, headers, content_type = await self._dispatch(request)
        except ServeError as exc:
            status, body, headers, content_type = (
                exc.status,
                json_body(exc.body()),
                (
                    {"Retry-After": f"{max(0.0, exc.retry_after):.3f}"}
                    if exc.retry_after is not None
                    else {}
                ),
                "application/json",
            )
        except asyncio.CancelledError:
            # cancelled (drain/teardown) before a status existed: book the
            # request under 499 so requests and responses always balance
            self.stats.note(499)
            raise
        except Exception as exc:  # never a traceback on the wire
            status, body, headers, content_type = (
                500,
                json_body(
                    {
                        "error": "internal",
                        "message": f"unhandled {type(exc).__name__}",
                    }
                ),
                {},
                "application/json",
            )
        # note once the response is rendered — a client that vanishes during
        # the final drain still got a produced (and counted) response
        self.stats.note(status)
        writer.write(
            render_response(
                status,
                body,
                headers=headers,
                content_type=content_type,
                head_only=head_only,
                close=self._draining,
            )
        )
        await writer.drain()
        return status, body

    # -- routing + admission -------------------------------------------------

    async def _dispatch(
        self, request: Request
    ) -> tuple[int, bytes, dict[str, str], str]:
        if request.method not in ("GET", "HEAD"):
            raise ServeError(
                405, "method_not_allowed",
                f"{request.method} not supported (read-only API)",
            )
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return (
                200,
                json_body(
                    {"status": "draining" if self._draining else "ok"}
                ),
                {},
                "application/json",
            )
        if path == "/v1/stats":
            return 200, dumps(self._stats_payload()), {}, "application/json"
        if self._draining:
            self.stats.draining_refused += 1
            raise ServeError(
                503, "draining",
                "server is draining; retry against another replica",
                retry_after=self.config.grace_seconds,
            )
        self.service.maybe_revalidate()
        if path == "/v1/figures":
            return self._figure_list()
        if path.startswith("/v1/figures/"):
            return self._figure(request, path.removeprefix("/v1/figures/"))
        if path == "/v1/report":
            return 200, self.service.report_text(), {}, "text/plain; charset=utf-8"
        if path.startswith("/v1/slice/"):
            return await self._slice(request, path.removeprefix("/v1/slice/"))
        raise ServeError(404, "unknown_route", f"no route {request.path!r}")

    def _stats_payload(self) -> dict:
        service = self.service
        collection = service.collection
        follower = getattr(service, "_follower", None)
        return {
            "server": self.stats.snapshot(),
            "breaker": service.breaker.snapshot(),
            "tenants": self.limiter.stats(),
            "etag": service.etag,
            "archive": {
                "directory": str(service.directory),
                "snapshots": len(collection),
                "cache": collection.cache_info()._asdict(),
                "health_degraded": collection.health.degraded,
                "io_retries": collection.health.io_retries,
                "generation": service.generation,
                "published_generation": service.published_generation(),
            },
            "last_warm": service.warm_info(),
            "follower": (
                follower.stats.snapshot() if follower is not None else None
            ),
            "inflight": self._admitted,
            "draining": self._draining,
        }

    def _figure_list(self) -> tuple[int, bytes, dict[str, str], str]:
        body = json_body(
            {
                "figures": self.service.figure_names(),
                "etag": self.service.etag,
            }
        )
        headers = {"ETag": self.service.etag or ""}
        self._staleness_headers(headers)
        return 200, body, headers, "application/json"

    def _staleness_headers(self, headers: dict[str, str]) -> None:
        """Mark responses built from an outdated generation.

        Without a follower, a healthy (breaker-closed) server would
        otherwise never notice the archive changed on disk — the ETag
        stays frozen at warm time.  ``X-Archive-Stale`` names the newer
        published generation so clients (and operators) can tell cached-
        and-current from cached-and-superseded.  With a follower attached
        the gap closes within one poll interval, so no header is needed.
        """
        service = self.service
        if service.following:
            return
        published = service.published_generation()
        if published is not None and published > service.generation:
            headers["X-Archive-Stale"] = str(published)

    def _figure(
        self, request: Request, name: str
    ) -> tuple[int, bytes, dict[str, str], str]:
        headers: dict[str, str] = {}
        etag = self.service.etag
        if etag:
            headers["ETag"] = etag
        self._staleness_headers(headers)
        if self.service.breaker.state != "closed":
            headers["X-Degraded"] = "stale"
            headers["Retry-After"] = (
                f"{self.service.breaker.retry_after():.3f}"
            )
            self.stats.stale_served += 1
        if (
            etag
            and request.header("if-none-match") == etag
            and "X-Degraded" not in headers
        ):
            return 304, b"", headers, "application/json"
        body = self.service.figure(name)
        return 200, body, headers, "application/json"

    async def _slice(
        self, request: Request, rest: str
    ) -> tuple[int, bytes, dict[str, str], str]:
        parts = [p for p in rest.split("/") if p]
        if len(parts) != 2:
            raise ServeError(
                400, "bad_slice_path",
                "expected /v1/slice/<dim>/<key> with "
                f"dim in {list(SLICE_DIMENSIONS)}",
            )
        dim, key = parts
        tenant = request.header("x-tenant", "anonymous") or "anonymous"
        try:
            self.limiter.admit(tenant)
        except ServeError:
            self.stats.shed_tenant += 1
            raise
        self._check_admission()
        self._admitted += 1
        self._idle.clear()
        try:
            return await self._run_slice(dim, key)
        finally:
            self._admitted -= 1
            if self._admitted == 0:
                self._idle.set()

    def _check_admission(self) -> None:
        cfg = self.config
        if self._admitted >= cfg.max_inflight + cfg.queue_depth:
            self.stats.shed_queue += 1
            raise ServeError(
                429, "shed_queue",
                f"admission queue full ({self._admitted} in flight)",
                retry_after=cfg.request_timeout_s / 2,
            )
        budget = cfg.memory_budget
        if budget is not None:
            collection = self.service.collection
            resident = int(collection.cache_info().bytes)
            # headers-only worst case: each admitted request may inflate
            # one more full snapshot beyond what is already resident —
            # plus whatever a follower re-warm has reserved, so a swap in
            # flight sheds requests instead of OOMing live traffic
            projected = (
                resident
                + int(self.service.replay_reserved_bytes)
                + collection.max_snapshot_nbytes() * (self._admitted + 1)
            )
            if projected > budget.limit_bytes:
                self.stats.shed_memory += 1
                raise ServeError(
                    429, "shed_memory",
                    f"projected working set {projected} B exceeds the "
                    f"{budget.limit_bytes} B budget",
                    retry_after=cfg.request_timeout_s / 2,
                )

    async def _run_slice(
        self, dim: str, key: str
    ) -> tuple[int, bytes, dict[str, str], str]:
        cfg = self.config
        ctl = self.controller.child(max_seconds=cfg.request_timeout_s)
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        future = loop.run_in_executor(
            self._pool, self.service.slice, dim, key, ctl
        )
        try:
            rows, degraded = await asyncio.wait_for(
                asyncio.shield(future),
                timeout=cfg.request_timeout_s + cfg.hard_timeout_slack_s,
            )
        except asyncio.TimeoutError:
            # the engine should have degraded at the deadline; a result
            # this late means the task is wedged — cancel its controller
            # and report a typed timeout (the worker thread unwinds at its
            # next cancellation point; the future is intentionally left to
            # finish in the background rather than hang this connection)
            ctl.token.cancel("request hard-timeout")
            self.stats.hard_timeouts += 1
            raise ServeError(
                504, "hard_timeout",
                f"no result within {cfg.request_timeout_s + cfg.hard_timeout_slack_s:.1f}s",
            ) from None
        headers: dict[str, str] = {}
        payload: dict[str, Any] = {
            "dimension": dim,
            "key": key,
            "rows": rows,
            "elapsed_s": round(time.monotonic() - started, 6),
        }
        if degraded is not None:
            payload["degraded"] = degraded
            headers["X-Degraded"] = degraded["reason"]
            self.stats.degraded += 1
        return 200, dumps(payload), headers, "application/json"
