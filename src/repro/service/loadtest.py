"""``repro loadtest``: concurrent clients against the analysis service.

The harness answers the three questions the service exists to answer,
and records them in ``BENCH_service.json`` for the CI service gate:

* **throughput/latency** — N keep-alive clients issue ``/batch``
  requests back to back; the report carries requests-per-second and
  p50/p99 latency over every measured request;
* **warm traffic hits the store** — after one cold warm-up batch, the
  measured phase should be served from provenance
  (``repro_provenance_hit_rate`` ≥ 0.9 on a healthy service);
* **the worker pool is persistent** — the pool spawn counter must not
  move during the measured phase (``pool_spawn_delta_measured == 0``);
  warm-up may spawn once and reuse thereafter.

Run hermetically (no arguments: an in-process server on an ephemeral
port and a temporary store) or against a live server via ``url=``.
The client is stdlib asyncio — one connection per client, HTTP/1.1
keep-alive, no external dependencies — so the loadtest exercises the
same protocol path as any real client.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from .server import AnalysisService, ServiceConfig

__all__ = ["BENCH_SCHEMA", "LoadtestReport", "run_loadtest"]

BENCH_SCHEMA = "repro.bench.service/1"


@dataclass(frozen=True)
class LoadtestReport:
    """One loadtest run, ready to serialize as ``BENCH_service.json``."""

    clients: int
    requests_per_client: int
    total_requests: int
    elapsed_seconds: float
    rps: float
    p50_ms: float
    p99_ms: float
    statuses: Dict[str, int]
    warm_hit_rate: float
    pool_spawn_total: int
    pool_reuse_total: int
    pool_spawn_delta_measured: int
    rejected_total: int
    trials: int
    errors: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema": BENCH_SCHEMA,
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "total_requests": self.total_requests,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "rps": round(self.rps, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "statuses": dict(sorted(self.statuses.items())),
            "warm_hit_rate": self.warm_hit_rate,
            "pool": {
                "spawn_total": self.pool_spawn_total,
                "reuse_total": self.pool_reuse_total,
                "spawn_delta_measured": self.pool_spawn_delta_measured,
            },
            "rejected_total": self.rejected_total,
            "trials": self.trials,
            "errors": self.errors,
        }
        payload.update(self.extra)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> List[str]:
        return [
            "loadtest: %d clients x %d requests -> %.1f req/s"
            % (self.clients, self.requests_per_client, self.rps),
            "latency: p50 %.1f ms, p99 %.1f ms" % (self.p50_ms, self.p99_ms),
            "warm hit rate: %.3f" % self.warm_hit_rate,
            "pool: %d spawned, %d reused, measured-phase spawn delta %d"
            % (
                self.pool_spawn_total,
                self.pool_reuse_total,
                self.pool_spawn_delta_measured,
            ),
            "rejected (429): %d, errors: %d"
            % (self.rejected_total, self.errors),
        ]


class _Client:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: response headers of the most recent request (lower-cased keys).
        self.last_headers: Dict[str, str] = {}

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        """(status, body) for one request; reconnects after a close."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            "%s %s HTTP/1.1\r\n"
            "Host: %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n"
            "\r\n" % (method, path, self._host, len(body))
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        response = await self._reader.readexactly(length) if length else b""
        self.last_headers = headers
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, response

    async def request_json(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        status, body = await self.request(method, path, payload)
        return status, (json.loads(body) if body else {})


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(
        0, min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    )
    return sorted_values[index]


def _pool_counts(snapshot: Dict[str, object]) -> Tuple[int, int, int]:
    return (
        obs.counter_value(snapshot, "repro_pool_spawn_total"),
        obs.counter_value(snapshot, "repro_pool_reuse_total"),
        obs.counter_value(snapshot, "repro_service_rejected_total"),
    )


async def _drive(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    trials: int,
    warm_jobs: int,
) -> LoadtestReport:
    control = _Client(host, port)
    await control.connect()

    # Warm-up: one cold pooled batch fills the provenance store and
    # spawns the persistent pool; a second cold plan (different seed)
    # must *reuse* that pool.  Neither is part of the measured phase.
    status, _ = await control.request_json(
        "POST", "/batch", {"trials": trials, "jobs": warm_jobs}
    )
    if status != 200:
        raise RuntimeError("warm-up batch failed with HTTP %d" % status)
    status, _ = await control.request_json(
        "POST", "/batch", {"trials": trials, "jobs": warm_jobs, "seed": 7}
    )
    if status != 200:
        raise RuntimeError("warm-up batch failed with HTTP %d" % status)

    status, before = await control.request_json("GET", "/stats")
    if status != 200:
        raise RuntimeError("/stats failed with HTTP %d" % status)
    spawn_before, _, _ = _pool_counts(before)

    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    errors = 0

    async def client_loop(index: int) -> None:
        nonlocal errors
        client = _Client(host, port)
        await client.connect()
        payload = {"trials": trials}
        try:
            for _ in range(requests_per_client):
                started = time.monotonic()
                status, _body = await client.request("POST", "/batch", payload)
                latencies.append((time.monotonic() - started) * 1000.0)
                key = str(status)
                statuses[key] = statuses.get(key, 0) + 1
                if status == 429:
                    await asyncio.sleep(0.05)
                elif status != 200:
                    errors += 1
        finally:
            await client.close()

    started = time.monotonic()
    await asyncio.gather(*(client_loop(i) for i in range(clients)))
    elapsed = time.monotonic() - started

    status, after = await control.request_json("GET", "/stats")
    if status != 200:
        raise RuntimeError("/stats failed with HTTP %d" % status)
    await control.close()

    spawn_after, reuse_after, rejected = _pool_counts(after)
    hit_rate = obs.gauge_value(after, "repro_provenance_hit_rate")
    ordered = sorted(latencies)
    total = len(latencies)
    return LoadtestReport(
        clients=clients,
        requests_per_client=requests_per_client,
        total_requests=total,
        elapsed_seconds=elapsed,
        rps=(total / elapsed) if elapsed > 0 else 0.0,
        p50_ms=_percentile(ordered, 0.50),
        p99_ms=_percentile(ordered, 0.99),
        statuses=statuses,
        warm_hit_rate=float(hit_rate) if hit_rate is not None else 0.0,
        pool_spawn_total=spawn_after,
        pool_reuse_total=reuse_after,
        pool_spawn_delta_measured=spawn_after - spawn_before,
        rejected_total=rejected,
        trials=trials,
        errors=errors,
    )


def run_loadtest(
    url: Optional[str] = None,
    *,
    clients: int = 8,
    requests_per_client: int = 25,
    trials: int = 12,
    cache_dir: Optional[str] = None,
    warm_jobs: int = 2,
    request_timeout: Optional[float] = 120.0,
    queue_limit: Optional[int] = None,
    out: Optional[str] = None,
) -> LoadtestReport:
    """Load-test a service and (optionally) write ``BENCH_service.json``.

    ``url=None`` is the hermetic mode: an :class:`AnalysisService` is
    started in-process on an ephemeral port, backed by ``cache_dir``
    (a temporary directory by default).  With a ``url`` the harness
    only drives traffic — the server's own configuration applies, and
    ``cache_dir``/``queue_limit`` here are ignored.
    """

    async def _run() -> LoadtestReport:
        if url is not None:
            parsed = urllib.parse.urlsplit(url)
            host = parsed.hostname or "127.0.0.1"
            port = parsed.port or 80
            return await _drive(
                host,
                port,
                clients=clients,
                requests_per_client=requests_per_client,
                trials=trials,
                warm_jobs=warm_jobs,
            )

        limit = queue_limit if queue_limit is not None else max(8, clients)
        with tempfile.TemporaryDirectory() as scratch:
            config = ServiceConfig(
                cache_dir=cache_dir if cache_dir is not None else scratch,
                queue_limit=limit,
                request_timeout=request_timeout,
            )
            service = AnalysisService(config)
            await service.start()
            try:
                assert service.port is not None
                return await _drive(
                    config.host,
                    service.port,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    trials=trials,
                    warm_jobs=warm_jobs,
                )
            finally:
                await service.stop()

    report = asyncio.run(_run())
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    return report
