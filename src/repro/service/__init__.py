"""Analysis-as-a-service: a long-lived HTTP front end for the batch runner.

``repro serve`` keeps one process alive across many verification
requests, which is what makes the PR 4-7 machinery pay off: the
persistent worker pool (:mod:`repro.analysis.pool`) amortizes process
spin-up, the in-process parse/compile/replay caches stay warm, and the
provenance store — one sqlite/WAL database built for concurrent
writers — serves repeat verdicts without re-running anything.

The package is stdlib-only:

* :mod:`repro.service.server` — :class:`ServiceConfig` and
  :class:`AnalysisService`, an asyncio HTTP/1.1 server with keep-alive,
  a bounded admission queue (full ⇒ ``429`` + ``Retry-After``),
  per-request timeouts (``504``), and the analysis endpoints
  ``/analyze``, ``/verify``, ``/batch``, ``/trace``, ``/replay``
  alongside the operational ``/stats``, ``/metrics``, ``/healthz``;
* :mod:`repro.service.loadtest` — the ``repro loadtest`` harness:
  concurrent keep-alive clients, p50/p99/requests-per-second, and the
  ``BENCH_service.json`` artifact the CI service gate checks.
"""

from .loadtest import LoadtestReport, run_loadtest
from .server import AnalysisService, ServiceConfig

__all__ = [
    "AnalysisService",
    "LoadtestReport",
    "ServiceConfig",
    "run_loadtest",
]
