"""The asyncio HTTP/1.1 analysis server behind ``repro serve``.

One process, many requests.  Blocking analysis work (everything that
parses, replays, or verifies) runs on a bounded thread pool via
``run_in_executor``; the event loop itself only parses HTTP and does
admission control, so ``/healthz`` and ``/metrics`` stay responsive
while a batch grinds.

Three operational contracts, each load-tested by ``repro loadtest``
and pinned by the CI service gate:

* **backpressure is explicit** — at most ``queue_limit`` analysis
  requests are in flight (running *or* queued for a thread); one more
  gets an immediate ``429`` with ``Retry-After``, counted in
  ``repro_service_rejected_total``.  Clients never observe an
  unbounded queue, only a fast retry signal.
* **timeouts are per request** — an admitted request that outlives
  ``request_timeout`` gets ``504``; the worker thread finishes (or is
  abandoned to finish) in the background, exactly like the batch
  runner's own per-job timeout story.
* **metrics are always on** — the service installs one obs registry
  for its lifetime, so ``/metrics`` (Prometheus text) and ``/stats``
  (the canonical JSON snapshot) expose cache hit rates, pool
  spawn/reuse counts, and per-endpoint request histograms without any
  flag.

Every analysis endpoint is a record of the operation table
(:mod:`repro.operations`), which names its methods, the request fields
it accepts (anything else is ``400``), its facade function and its wire
form.  :class:`ServiceConfig` pins the store (an operator decision) and
supplies the ``trials``/``seed``/``jobs`` defaults.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .. import obs
from ..analysis.config import RunConfig
from ..analysis.runner import load_batch_stack
from ..operations import ROUTES, http_inputs, invoke, wire

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 1 << 20

#: The operational plane: served by the service itself, outside
#: admission, so it stays responsive while analyses grind.
OPERATIONAL = ("stats", "metrics", "healthz")

#: Endpoint label values; anything else is folded into "unknown" so the
#: request counter's cardinality is bounded by this tuple.
ENDPOINTS = tuple(path[1:] for path in ROUTES) + OPERATIONAL

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-side configuration for one :class:`AnalysisService`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`AnalysisService.port` — this is how tests and the hermetic
    loadtest run without port coordination).  ``cache_dir=None``
    disables the provenance store; a service that should ever report a
    warm hit rate needs one.  ``jobs`` is the *default* batch
    parallelism — request bodies may override it per run, but the
    store location is pinned here and never client-controlled.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: analysis requests admitted concurrently (running or waiting for
    #: a worker thread); one more is rejected with 429.
    queue_limit: int = 8
    #: seconds an admitted analysis request may run before 504.
    request_timeout: Optional[float] = 60.0
    cache_dir: Optional[str] = None
    jobs: int = 1
    trials: int = 120
    seed: int = 1982

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        # The defaults must form a plan some request could run, and a
        # request's time limit must be positive as a job's is: checked
        # as a RunConfig checks its own fields.
        RunConfig(
            trials=self.trials,
            seed=self.seed,
            jobs=self.jobs,
            timeout=self.request_timeout,
        )


class _HttpError(Exception):
    """An error with a definite HTTP status (terminates one request)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AnalysisService:
    """The analysis server: start, take traffic, stop.

    Usage (tests, embedding)::

        service = AnalysisService(ServiceConfig(cache_dir=...))
        await service.start()
        ...                      # it is serving on service.port
        await service.stop()

    ``repro serve`` wraps this in ``asyncio.run`` + serve-forever.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._collect = None
        self._registry = None
        self._inflight = 0
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Load the batch stack, bind the socket and install the
        lifetime metrics registry."""
        if self._server is not None:
            raise RuntimeError("service already started")
        load_batch_stack()
        self._collect = obs.collecting()
        self._registry = self._collect.__enter__()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.queue_limit,
            thread_name_prefix="repro-service",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop the thread pool, restore the registry."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._collect is not None:
            self._collect.__exit__(None, None, None)
            self._collect = None
            self._registry = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    payload = _json_bytes({"error": str(error)})
                    await self._respond(
                        writer, error.status, payload,
                        "application/json", False, {},
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, content_type, extra = await self._dispatch(
                    method, path, query, body
                )
                await self._respond(
                    writer, status, payload, content_type, keep_alive, extra
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            # Loop teardown cancels handlers parked on a keep-alive
            # read; the connection is going away regardless.
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            # Teardown is best-effort: the peer may already be gone, and
            # service stop cancels handlers parked right here.
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """One parsed request, or None at clean end-of-connection."""
        try:
            line = await reader.readline()
        except ValueError:  # line longer than the reader limit
            raise _HttpError(400, "request line too long") from None
        if not line.strip():
            return None
        try:
            method, target, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if b":" not in raw:
                raise _HttpError(400, "malformed header")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, "malformed Content-Length")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        parsed = urllib.parse.urlsplit(target)
        return method.upper(), parsed.path, parsed.query, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
        extra_headers: Dict[str, str],
    ) -> None:
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
            "Content-Type: %s" % content_type,
            "Content-Length: %d" % len(payload),
            "Connection: %s" % ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in extra_headers.items():
            lines.append("%s: %s" % (name, value))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        writer.write(head + payload)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        endpoint = path.lstrip("/") or "healthz"
        if endpoint not in ENDPOINTS:
            endpoint = "unknown"
        started = time.monotonic()
        extra: Dict[str, str] = {}
        try:
            status, payload, content_type = await self._route(
                method, path, query, body
            )
        except _HttpError as error:
            status = error.status
            payload = _json_bytes({"error": str(error)})
            content_type = "application/json"
            if status == 429:
                extra["Retry-After"] = "1"
        except Exception as error:  # noqa: BLE001 — the service must answer
            status = 500
            payload = _json_bytes(
                {"error": "%s: %s" % (type(error).__name__, error)}
            )
            content_type = "application/json"
        obs.inc(
            "repro_service_requests_total",
            endpoint=endpoint,
            status=str(status),
        )
        if endpoint != "unknown":
            obs.observe(
                "repro_service_request_seconds",
                time.monotonic() - started,
                endpoint=endpoint,
            )
        return status, payload, content_type, extra

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if path in ("/healthz", "/"):
            _require(method, "GET")
            return 200, _json_bytes(self._health()), "application/json"
        if path == "/metrics":
            _require(method, "GET")
            text = obs.export_prometheus(self._snapshot())
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        if path == "/stats":
            _require(method, "GET")
            text = obs.export_json(self._snapshot())
            return 200, text.encode("utf-8"), "application/json"
        op = ROUTES.get(path)
        if op is None:
            raise _HttpError(404, "no such endpoint: %s" % path)
        _require(method, *op.http.methods)
        body = {} if method == "GET" else _parse_json(body)
        try:
            request = http_inputs(op, method, query, body)
        except ValueError as error:
            raise _HttpError(400, str(error)) from None
        # The operator's store always; its trials/seed/jobs defaults
        # where the route takes those fields.
        values = {"cache_dir": self.config.cache_dir}
        for param in op.http.fields:
            if param.name in ("trials", "seed", "jobs"):
                values[param.name] = getattr(self.config, param.name)
        values.update(request)

        def answer() -> bytes:
            try:
                result = invoke(op.http.call or op.call, values)
            except ValueError as error:  # unknown names, bad plans
                raise _HttpError(400, str(error)) from None
            if result is None:
                raise _HttpError(
                    404, "%s: no %s recorded" % (values["name"], op.name)
                )
            return (wire(op, result) + "\n").encode("utf-8")

        return await self._blocking(op.name, answer)

    def _health(self) -> Dict[str, object]:
        return {
            "ok": True,
            "service": "repro",
            "cache_dir": self.config.cache_dir,
            "queue_limit": self.config.queue_limit,
            "inflight": self._inflight,
        }

    def _snapshot(self) -> Dict[str, object]:
        registry = self._registry
        if registry is None:
            return obs.empty_snapshot()
        return registry.snapshot()

    # -- admission + execution ------------------------------------------

    async def _blocking(
        self, endpoint: str, work: Callable[[], bytes]
    ) -> Tuple[int, bytes, str]:
        """Admit, run on the thread pool, time out; the 429/504 seam."""
        if self._inflight >= self.config.queue_limit:
            obs.inc("repro_service_rejected_total", endpoint=endpoint)
            raise _HttpError(
                429,
                "request queue full (%d in flight); retry shortly"
                % self._inflight,
            )
        assert self._executor is not None, "service not started"
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            future = loop.run_in_executor(self._executor, work)
            if self.config.request_timeout is not None:
                future = asyncio.wait_for(
                    future, timeout=self.config.request_timeout
                )
            payload = await future
        except asyncio.TimeoutError:
            raise _HttpError(
                504,
                "request exceeded %.3gs; the worker keeps running in the "
                "background" % self.config.request_timeout,
            ) from None
        finally:
            self._inflight -= 1
        return 200, payload, "application/json"


# ---------------------------------------------------------------------------
# request helpers


def _require(method: str, *allowed: str) -> None:
    if method not in allowed:
        raise _HttpError(405, "use %s" % " or ".join(allowed))


def _parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        request = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(400, "request body is not JSON: %s" % error) from None
    if not isinstance(request, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return request


def _json_bytes(payload: Dict[str, object]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
