"""A persistent, reusable worker pool for batch verification.

Historically every pooled ``run_batch`` call built its own
:class:`~concurrent.futures.ProcessPoolExecutor` and tore it down at
the end — acceptable for a one-shot CLI run, fatal for a service: the
fork/spawn cost lands on *every* request, and the workers' warm
parse/compile/replay caches die with the pool.

This module keeps **one** process pool alive per parent process and
hands it to every pooled batch (CLI and :mod:`repro.service` alike):

* the first pooled run spawns the pool (``repro_pool_spawn_total``);
* later runs whose worker demand fits the live pool reuse it
  untouched (``repro_pool_reuse_total``) — the workers keep every
  content-keyed cache they have warmed, so repeated requests stop
  re-parsing, re-compiling, and re-replaying;
* a run that needs *more* workers than the pool has respawns it at
  the larger size (counted as a spawn);
* a run that breaks the pool (worker crash) or abandons workers
  (per-job timeout on a non-preemptible job) must *invalidate* it —
  the damaged pool is discarded and the next pooled run starts fresh.

The pool is deliberately lazy and demand-driven: a serial run
(``jobs=1``) or a fully cache-served warm run never touches this
module, so the spawn counter stays flat across warm traffic — the
property ``BENCH_service.json`` and the CI service gate pin.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import threading
from typing import Optional

from .. import obs


class PersistentPool:
    """Lifecycle manager for one long-lived process pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._workers = 0

    @property
    def workers(self) -> int:
        """The live pool's worker count (0 when no pool is up)."""
        with self._lock:
            return self._workers if self._executor is not None else 0

    def acquire(self, workers: int) -> concurrent.futures.ProcessPoolExecutor:
        """An executor with at least ``workers`` worker slots.

        A live pool that is large enough is reused (its extra workers,
        if any, simply idle — the batch runner throttles submission to
        the ``jobs`` it was asked for); otherwise a new pool is
        spawned.  Every call increments exactly one of the two pool
        counters, so ``repro stats`` shows churn directly.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        with self._lock:
            if self._executor is not None and self._workers >= workers:
                obs.inc("repro_pool_reuse_total")
                return self._executor
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            )
            self._workers = workers
            obs.inc("repro_pool_spawn_total")
            return self._executor

    def invalidate(
        self,
        executor: Optional[concurrent.futures.ProcessPoolExecutor] = None,
    ) -> None:
        """Discard a damaged (or merely unwanted) pool.

        ``executor`` guards against racing invalidations: passing the
        executor a run actually used means a *newer* pool (already
        respawned by a concurrent run) is left alone.  ``None``
        unconditionally discards whatever is live.
        """
        with self._lock:
            if executor is not None and executor is not self._executor:
                executor.shutdown(wait=False, cancel_futures=True)
                return
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self._workers = 0

    def shutdown(self) -> None:
        """Tear the pool down (tests, interpreter exit)."""
        self.invalidate(None)


#: The process-wide pool every pooled batch shares.
_POOL = PersistentPool()


def get_pool() -> PersistentPool:
    """The process-wide persistent pool."""
    return _POOL


def shutdown_pool() -> None:
    """Shut the process-wide pool down (idempotent)."""
    _POOL.shutdown()


atexit.register(shutdown_pool)
