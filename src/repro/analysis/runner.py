"""Parallel batch engine for the full analysis catalog.

The paper's EXTRA system analyzed one instruction at a time,
interactively; this reproduction replays every recorded analysis and
differentially verifies each result.  Done serially that is the
slowest path in the repo, yet the workload is embarrassingly parallel:
every analysis is independent, and within one analysis every
randomized verification trial is independent too.

This module turns the one-shot replay into a service-shaped pipeline:

* each analysis's randomized trials are cut into contiguous *shards*
  (:func:`shard_plan`), and the catalog into *jobs* — one per entry,
  holding up to :data:`RUN_SHARDS` of its shards (a replay-only entry
  is one job with no trials);
* :func:`execute_shards` runs one job: one replay, one lint gate and
  one wide batch per final description over all of the job's shards,
  split back into one success/failure record per shard instead of
  aborting the batch on the first exception;
* a serial run executes the jobs in-process, a pooled run submits the
  same jobs to the *persistent* process pool shared with the analysis
  service (:mod:`repro.analysis.pool`), with a configurable worker
  count and per-job timeout; the pool outlives the batch, so
  back-to-back pooled runs reuse live, cache-warm workers instead of
  re-forking;
* shard seeds derive deterministically from the single root seed (see
  :func:`repro.semantics.randomgen.derive_seed`), so scenario ``i`` is
  the same machine state whether it runs in shard 0 of 1 or shard 3 of
  4 — ``--jobs N`` never changes the results, only the wall clock;
* results aggregate in catalog order, so two runs with the same seed
  produce byte-identical JSON reports (timing lives outside the JSON).

Within a worker process, replayed analyses are memoized per module (a
worker running two jobs of ``scasb_rigel`` replays the script once)
and the parsers behind them are content-keyed
(:mod:`repro.isdl.cache`), so repeated runs stop re-parsing identical
ISDL sources.

With ``cache_dir`` set, the batch becomes *incremental*: each entry's
verdict key (input-description digests + code epoch + verification
plan, see :mod:`repro.provenance.store`) is looked up before any job
is planned, and a hit reuses the memoized verdict — skipping both the
transformation replay and every verification trial for that entry.
Fresh verdicts are recorded after the run, so an unchanged tree's
second batch is almost pure cache.  The JSON report of a warm run is
byte-identical to the cold run apart from the top-level ``"cache"``
counters.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import importlib
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..semantics.engine import DEFAULT_ENGINE
from .config import RunConfig, UnknownAnalysisError
from .report import canonical_report_json

#: trials per verification shard; fixed (never derived from the worker
#: count) so the shard layout — and therefore the report — is identical
#: at every ``--jobs`` setting.
SHARD_TRIALS = 64

#: most shards of one entry in one job.  Their windows share one batch
#: per description, whose memory grows with its lanes (about 1.4 KB
#: each) while the per-lane time stops falling at a few thousand lanes,
#: so longer entries take one job per 4,096 trials.
RUN_SHARDS = 64

#: JSON report schema identifier.
SCHEMA = "repro.batch/1"


@dataclass(frozen=True)
class CatalogEntry:
    """One analysis in the batch catalog."""

    name: str
    group: str  # "table2" | "failures" | "extensions"
    expect_failure: bool
    machine: str
    instruction: str
    language: str
    operation: str
    paper_steps: Optional[int]
    has_scenario: bool


@dataclass(frozen=True)
class BatchJob:
    """One unit of batch work: replay ``name``, verify its ``windows``.

    ``windows`` holds at most :data:`RUN_SHARDS` contiguous
    ``(offset, count)`` shards of the analysis's scenario stream.  A
    replay-only job (failure demonstrations, or ``verify=False`` runs)
    holds the single window ``(0, 0)``.
    """

    name: str
    windows: Tuple[Tuple[int, int], ...]
    seed: int
    engine: str = DEFAULT_ENGINE
    #: run the symbolic prove-then-sample fast path.
    symbolic: bool = False
    #: collect this job's metrics in a registry of its own and ship its
    #: snapshot back on the first record.  Set by the pool path when the
    #: parent collects: a worker's counts never reach the parent's
    #: registry otherwise.
    collect: bool = False


@dataclass
class JobResult:
    """Aggregated, JSON-ready outcome of one catalog entry."""

    name: str
    group: str
    expected: str  # "success" | "failure"
    succeeded: bool = False
    steps: Optional[int] = None
    failure: Optional[str] = None
    verified_trials: int = 0
    shards: int = 0
    error: Optional[str] = None
    timed_out: bool = False
    #: True when this result was reconstructed from a stored verdict
    #: rather than replayed.  Excluded from the per-result JSON: apart
    #: from the top-level cache counters, a warm report must be
    #: byte-identical to the cold one.
    cached: bool = False

    @property
    def ok(self) -> bool:
        if self.error or self.timed_out:
            return False
        expected_failure = self.expected == "failure"
        return self.succeeded != expected_failure


@dataclass
class BatchReport:
    """Everything one ``repro batch`` invocation produced."""

    results: List[JobResult]
    seed: int
    trials: int
    verify: bool
    #: total wall-clock seconds (outside the deterministic JSON).
    elapsed: float = 0.0
    jobs: int = 1
    #: execution engine used for verification trials.  Deliberately
    #: excluded from :meth:`to_json`: the report must be byte-identical
    #: across engines — that equality is itself a correctness check.
    engine: str = DEFAULT_ENGINE
    #: provenance-cache settings and counters.  ``cache_enabled`` is
    #: False when the run had no store; the counters then stay zero.
    cache_enabled: bool = False
    #: metrics snapshot of this run (``repro.metrics/1``), attached only
    #: when the caller asked for it (``api.batch(metrics=True)``).
    #: Serialized as a top-level ``"metrics"`` block; without it the
    #: JSON is unchanged.
    metrics: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def cache_lookup_misses(self) -> int:
        if not self.cache_enabled:
            return 0
        return sum(1 for result in self.results if not result.cached)

    def to_json(self) -> str:
        """Deterministic report: same seed -> byte-identical output.

        Durations and the worker count are deliberately excluded —
        they are the two fields that legitimately vary between
        otherwise identical runs.
        """
        payload = {
            "schema": SCHEMA,
            "seed": self.seed,
            "trials": self.trials,
            "verify": self.verify,
            "summary": {
                "total": len(self.results),
                "ok": sum(1 for r in self.results if r.ok),
                "failed": sum(1 for r in self.results if not r.ok),
            },
            "results": [
                {
                    "name": result.name,
                    "group": result.group,
                    "expected": result.expected,
                    "status": "ok" if result.ok else "failed",
                    "succeeded": result.succeeded,
                    "steps": result.steps,
                    "failure": result.failure,
                    "verified_trials": result.verified_trials,
                    "shards": result.shards,
                    "error": result.error,
                    "timed_out": result.timed_out,
                }
                for result in self.results
            ],
        }
        if self.cache_enabled:
            payload["cache"] = {
                "enabled": True,
                "hits": self.cache_hits,
                "misses": self.cache_lookup_misses,
            }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return canonical_report_json(payload)

    def summary_lines(self) -> List[str]:
        lines = []
        for result in self.results:
            status = "ok" if result.ok else "FAILED"
            detail = ""
            if result.timed_out:
                detail = " (timed out)"
            elif result.error:
                detail = f" (error: {result.error.splitlines()[0]})"
            elif result.failure and result.expected == "failure":
                detail = " (failed as documented)"
            elif result.failure:
                detail = f" ({result.failure.splitlines()[0]})"
            if result.cached:
                detail += " [cached]"
            verified = (
                f" verified={result.verified_trials}"
                if result.verified_trials
                else ""
            )
            lines.append(
                f"{status:6s} {result.name:28s} "
                f"steps={result.steps if result.steps is not None else '-'}"
                f"{verified}{detail}"
            )
        ok = sum(1 for r in self.results if r.ok)
        lines.append(
            f"{ok}/{len(self.results)} ok in {self.elapsed:.2f}s "
            f"(jobs={self.jobs}, trials={self.trials}, seed={self.seed}, "
            f"engine={self.engine})"
        )
        if self.cache_enabled:
            lines.append(
                f"cache: {self.cache_hits} hit(s), "
                f"{self.cache_lookup_misses} miss(es)"
            )
        return lines


def catalog() -> Tuple[CatalogEntry, ...]:
    """The full batch catalog, straight from the analysis registry."""
    from ..analyses import REGISTRY

    entries = []
    for spec in REGISTRY:
        entries.append(
            CatalogEntry(
                name=spec.name,
                group=spec.group,
                expect_failure=spec.expect_failure,
                machine=spec.module.INFO.machine,
                instruction=spec.module.INFO.instruction,
                language=spec.module.INFO.language,
                operation=spec.module.INFO.operation,
                paper_steps=spec.paper_steps,
                has_scenario=getattr(spec.module, "SCENARIO", None) is not None,
            )
        )
    return tuple(entries)


def resolve_names(names: Optional[Sequence[str]]) -> Tuple[CatalogEntry, ...]:
    """Catalog entries for ``names`` (all entries when empty/None)."""
    entries = catalog()
    if not names:
        return entries
    by_name = {entry.name: entry for entry in entries}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise UnknownAnalysisError(
            f"unknown analyses: {', '.join(sorted(unknown))}; "
            f"try: python -m repro list"
        )
    # Catalog order, not request order: the report must not depend on
    # how the user happened to spell the selection.
    requested = set(names)
    return tuple(entry for entry in entries if entry.name in requested)


def shard_plan(trials: int, shard_trials: int = SHARD_TRIALS) -> Tuple[Tuple[int, int], ...]:
    """Split ``trials`` into contiguous ``(offset, count)`` windows."""
    if trials <= 0:
        return ()
    shards = []
    offset = 0
    while offset < trials:
        count = min(shard_trials, trials - offset)
        shards.append((offset, count))
        offset += count
    return tuple(shards)


def plan_jobs(
    entries: Sequence[CatalogEntry],
    trials: int,
    seed: int,
    verify: bool,
    engine: str = DEFAULT_ENGINE,
    symbolic: bool = False,
) -> List[BatchJob]:
    """The deterministic job list for one batch invocation.

    Every entry gets at least one job.  A verified entry's shards go
    :data:`RUN_SHARDS` to a job; each job re-derives the binding where
    it runs (the replay is memoized per process) and verifies its
    windows of the scenario stream.  Entries expected to fail get a
    replay-only job.
    """
    jobs: List[BatchJob] = []
    for entry in entries:
        wants_verify = verify and entry.has_scenario and not entry.expect_failure
        windows = (shard_plan(trials) if wants_verify else ()) or ((0, 0),)
        for start in range(0, len(windows), RUN_SHARDS):
            jobs.append(
                BatchJob(
                    entry.name,
                    windows[start : start + RUN_SHARDS],
                    seed,
                    engine,
                    symbolic,
                )
            )
    return jobs


@lru_cache(maxsize=None)
def _replay(name: str):
    """Replay one analysis script (no verification), memoized per process."""
    with obs.span("replay", analysis=name):
        module = importlib.import_module(f"repro.analyses.{name}")
        return module, module.run(verify=False)


def _clear_replay_cache() -> None:
    _replay.cache_clear()


def _record(error: Optional[str] = None) -> Dict[str, object]:
    """A window's record before its job ran (``error``: it never will)."""
    return {
        "succeeded": False,
        "steps": None,
        "failure": None,
        "verified": 0,
        "error": error,
    }


def execute_shards(job: BatchJob) -> List[Dict[str, object]]:
    """Run one job; always returns one structured, picklable record
    per window, in order.

    The entry is replayed and lint-gated once, and every window that
    verifies trials is one window of a single
    :func:`~repro.analysis.verify.verify_binding` call, so on the
    vectorized engine each final description runs once over all of
    the job's trials.  Each window still gets its own verdict: a
    window that fails leaves the other windows' records as they are.

    A successfully replayed binding is lint-gated *before* any trial
    runs: gate rejections land in ``record["error"]`` with a
    ``LintGateError:`` prefix — structurally distinct from a fuzz
    mismatch (``record["failure"]``) and from a timeout (no record).
    A job with ``collect`` set runs in a registry of its own, whose
    snapshot rides on its first record, beside the analysis trace the
    replay built.
    """
    if not job.collect:
        return _run_job(job)
    with obs.collecting() as registry:
        records = _run_job(job)
    # The parent merges these snapshots in plan order (see run_batch).
    records[0]["metrics"] = registry.snapshot()
    return records


def _run_job(job: BatchJob) -> List[Dict[str, object]]:
    """:func:`execute_shards` in whatever registry is installed."""
    from ..lint import LintGateError, lint_binding
    from .verify import VerificationFailure, verify_binding

    records = [_record() for _ in job.windows]
    try:
        with obs.span("shard", analysis=job.name):
            module, outcome = _replay(job.name)
            for record in records:
                record["succeeded"] = outcome.succeeded
                record["steps"] = outcome.steps
                record["failure"] = outcome.failure
            if outcome.succeeded:
                gate = lint_binding(outcome.binding)
                if gate:
                    raise LintGateError(tuple(gate))
            # The parent stores this trace with the entry's verdict.
            records[0]["trace"] = outcome.trace
            scenario = getattr(module, "SCENARIO", None)
            verifying = [
                (window, record)
                for window, record in zip(job.windows, records)
                if window[1]
            ]
            if outcome.succeeded and scenario is not None and verifying:
                reports = verify_binding(
                    outcome.binding,
                    scenario,
                    config=RunConfig(
                        engine=job.engine,
                        seed=job.seed,
                        symbolic=job.symbolic,
                    ),
                    windows=[window for window, _ in verifying],
                    gate="sampled",
                )
                for (_, record), report in zip(verifying, reports):
                    if isinstance(report, VerificationFailure):
                        record["failure"] = f"VerificationFailure: {report}"
                        record["succeeded"] = False
                    elif isinstance(report, Exception):
                        record["error"] = f"{type(report).__name__}: {report}"
                    else:
                        # Honest accounting: a proved binding's
                        # shortened confirmation window reports the
                        # trials that ran, not the trials planned.
                        record["verified"] = report.confirmed_trials
    except LintGateError as error:
        for record in records:
            record["error"] = f"LintGateError: {error}"
            record["succeeded"] = False
    except Exception as error:  # noqa: BLE001 - structured, not fatal
        for record in records:
            record["error"] = f"{type(error).__name__}: {error}"
    return records


def load_batch_stack() -> None:
    """Import everything a cold batch runs.

    That is the catalog's analysis modules, the verifier with its lint
    gate, and the vectorized engine with numpy; a warm batch needs only
    the first, so the rest load with the first job.  A process about to
    fork pool workers calls this first, so the workers inherit the
    modules instead of each importing them, and so does ``repro serve``
    before it answers, so that its first request does not import them.
    """
    from .. import analyses  # noqa: F401 - the catalog
    from ..semantics import vectorized  # noqa: F401 - numpy loads with it
    from . import verify  # noqa: F401 - the lint gate loads with it


def _aggregate(
    entries: Sequence[CatalogEntry],
    jobs: Sequence[BatchJob],
    outcomes: Sequence[Sequence[Optional[Dict[str, object]]]],
) -> List[JobResult]:
    """Fold each job's window records into one :class:`JobResult` per
    entry; a ``None`` record is a window that timed out."""
    by_entry: Dict[str, List[Optional[Dict[str, object]]]] = {}
    for job, records in zip(jobs, outcomes):
        by_entry.setdefault(job.name, []).extend(records)
    results = []
    for entry in entries:
        result = JobResult(
            name=entry.name,
            group=entry.group,
            expected="failure" if entry.expect_failure else "success",
        )
        saw_record = False
        for record in by_entry.get(entry.name, ()):
            result.shards += 1
            if record is None:
                result.timed_out = True
                continue
            if record["error"]:
                if result.error is None:
                    result.error = str(record["error"])
                continue
            # Failure is sticky across shards: the entry succeeds only
            # if *every* shard succeeded, so a VerificationFailure in
            # shard 0 is not masked by shard 1 passing.
            succeeded = bool(record["succeeded"])
            result.succeeded = (
                succeeded if not saw_record else (result.succeeded and succeeded)
            )
            saw_record = True
            if record["steps"] is not None:
                result.steps = int(record["steps"])  # type: ignore[arg-type]
            if record["failure"] and not result.failure:
                result.failure = str(record["failure"])
            result.verified_trials += int(record["verified"])  # type: ignore[arg-type]
        if result.failure is not None:
            result.succeeded = False
        results.append(result)
    return results


def entry_verdict_key(
    entry: CatalogEntry,
    engine: str,
    trials: int,
    seed: int,
    verify: bool,
    epoch: Optional[str] = None,
    symbolic: bool = False,
) -> Dict[str, object]:
    """The provenance-store key for one entry's batch verdict.

    Computable *without running the analysis*: the input descriptions
    come from the module's ``OPERATOR`` / ``INSTRUCTION`` factories,
    and everything else is the verification plan.
    """
    from ..isdl import description_digest
    from ..provenance import verdict_key

    module = importlib.import_module(f"repro.analyses.{entry.name}")
    return verdict_key(
        entry.name,
        description_digest(module.OPERATOR()),
        description_digest(module.INSTRUCTION()),
        engine,
        trials,
        seed,
        verify,
        epoch=epoch,
        symbolic=symbolic,
    )


#: JobResult fields that round-trip through a stored verdict — exactly
#: the fields the JSON report exposes per result.
_VERDICT_FIELDS = (
    "succeeded",
    "steps",
    "failure",
    "verified_trials",
    "shards",
    "error",
    "timed_out",
)


def _result_payload(result: JobResult) -> Dict[str, object]:
    return {name: getattr(result, name) for name in _VERDICT_FIELDS}


def _result_from_artifact(
    entry: CatalogEntry, artifact: Dict[str, object]
) -> Optional[JobResult]:
    """Rebuild a :class:`JobResult` from a stored verdict, or None."""
    payload = artifact.get("result")
    if not isinstance(payload, dict):
        return None
    if any(name not in payload for name in _VERDICT_FIELDS):
        return None
    result = JobResult(
        name=entry.name,
        group=entry.group,
        expected="failure" if entry.expect_failure else "success",
        cached=True,
    )
    result.succeeded = bool(payload["succeeded"])
    result.steps = None if payload["steps"] is None else int(payload["steps"])
    result.failure = None if payload["failure"] is None else str(payload["failure"])
    result.verified_trials = int(payload["verified_trials"])
    result.shards = int(payload["shards"])
    result.error = None if payload["error"] is None else str(payload["error"])
    result.timed_out = bool(payload["timed_out"])
    return result


def _record_verdicts(
    store,
    results: Sequence[JobResult],
    keys: Dict[str, Dict[str, object]],
    traces: Dict[str, object],
) -> None:
    """Memoize every fresh, clean verdict of this batch.

    Only ``ok`` results are stored: an errored or timed-out entry must
    be re-attempted on the next run, never replayed from the cache.
    The full two-sided analysis trace (``traces``: the one each entry's
    job built when it replayed) is stored as an object of its own, its
    :meth:`~repro.provenance.AnalysisTrace.fields`, so the object's
    name is the derivation digest and equal derivations share one
    object.  It lands before the verdict artifact that names it in
    ``trace``: a store hit reads only the verdict, and ``repro replay``
    follows the reference to re-check the derivation later.
    """
    from ..provenance import STORE_SCHEMA

    for result in results:
        if result.cached or not result.ok or result.name not in keys:
            continue
        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "key": keys[result.name],
            "result": _result_payload(result),
        }
        trace = traces.get(result.name)
        if trace is not None:
            payload["trace"] = store.put_object(trace.fields())
        store.record_verdict(keys[result.name], payload)


#: distinct error sentinel for worker crashes (OOM, segfault): a dead
#: worker is not a timeout and must not be reported as one.
_BROKEN_POOL_ERROR = "BrokenProcessPool: worker process died unexpectedly"


def _run_pool(
    jobs: Sequence[BatchJob],
    workers: int,
    timeout: Optional[float],
) -> List[List[Optional[Dict[str, object]]]]:
    """Execute ``jobs`` on the persistent process pool with timeouts;
    returns each job's window records, in plan order.

    The pool comes from :mod:`repro.analysis.pool` and **outlives this
    call**: the first pooled batch spawns it, later batches reuse it —
    together with every parse/compile/replay cache its workers have
    warmed.

    Submission is throttled to the number of free worker slots, so a
    job's dispatch time is (to within scheduler noise) the time its
    worker starts it; each job's ``timeout`` deadline is measured from
    there — a job queued behind others is never charged for its wait.

    A running process task cannot be preempted: a job that misses its
    deadline is recorded as timed out (``None`` for each window) and
    its worker slot is written off (the abandoned worker keeps
    running; the pool is *invalidated* at the end, so the next pooled
    run starts fresh).  Jobs that can no longer be scheduled because
    every slot has been written off are reported as timed out too.  A
    worker crash breaks the whole pool, so the crashed job and all
    still-unfinished jobs get a distinct ``BrokenProcessPool`` error
    record per window, never a timeout — and the broken pool is
    likewise invalidated rather than reused.
    """
    from .pool import get_pool

    load_batch_stack()  # before the pool forks its workers
    manager = get_pool()
    pool = manager.acquire(workers)
    # A persistent pool's workers may have forked before this run's
    # metrics window opened, so each job collects its own metrics.
    collect = obs.enabled()
    outcomes: List[List[Optional[Dict[str, object]]]] = [[] for _ in jobs]

    def settle(index: int, error: Optional[str]) -> None:
        # A job whose worker returned no records: an error record, or
        # None when it timed out, for each of its windows.
        outcomes[index] = [
            None if error is None else _record(error)
            for _ in jobs[index].windows
        ]

    queue = list(range(len(jobs)))
    pending: Dict[concurrent.futures.Future, Tuple[int, float]] = {}
    abandoned = 0  # slots held by timed-out jobs that cannot be preempted
    broken = False
    try:
        while queue or pending:
            while queue and not broken and len(pending) < workers - abandoned:
                index = queue.pop(0)
                try:
                    future = pool.submit(
                        execute_shards,
                        dataclasses.replace(jobs[index], collect=collect),
                    )
                except (
                    RuntimeError,
                    concurrent.futures.process.BrokenProcessPool,
                ):
                    # BrokenProcessPool: a worker died.  RuntimeError:
                    # the executor was shut down underneath us (e.g. a
                    # concurrent invalidation).  Either way this pool
                    # cannot take more work.
                    broken = True
                    settle(index, _BROKEN_POOL_ERROR)
                    break
                pending[future] = (index, time.monotonic())
            if queue and (broken or workers - abandoned <= 0):
                for index in queue:
                    settle(index, _BROKEN_POOL_ERROR if broken else None)
                queue.clear()
            if not pending:
                continue
            wait_timeout = None
            if timeout is not None:
                next_deadline = (
                    min(dispatched for _, dispatched in pending.values())
                    + timeout
                )
                wait_timeout = max(0.0, next_deadline - time.monotonic())
            done, _ = concurrent.futures.wait(
                pending,
                timeout=wait_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                index, _dispatched = pending.pop(future)
                try:
                    outcomes[index] = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    broken = True
                    settle(index, _BROKEN_POOL_ERROR)
                except Exception as error:  # noqa: BLE001 - structured
                    settle(index, f"{type(error).__name__}: {error}")
            if timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_index, dispatched) in pending.items()
                    if now - dispatched >= timeout
                ]
                for future in expired:
                    index, _dispatched = pending.pop(future)
                    if not future.cancel():
                        abandoned += 1
                    settle(index, None)
    finally:
        if broken or abandoned:
            # Damaged pools are never reused: a crash poisons the
            # executor and an abandoned worker is still chewing on a
            # timed-out job.  The next pooled run spawns fresh.
            manager.invalidate(pool)
    return outcomes


def run_batch(
    names: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
) -> BatchReport:
    """Run the analysis catalog (or a subset) as a parallel batch.

    The run plan comes from ``config`` (a :class:`RunConfig`; None is
    the default plan: 120 trials, seed 1982, serial, verification on).

    ``jobs=1`` executes every job serially in-process; ``jobs>1`` uses
    a process pool.  Both paths execute the *same* deterministic job
    plan, so the aggregated results are identical — only wall-clock
    time differs.  ``timeout`` bounds each job's runtime, measured from
    when the job is dispatched to a free worker (pool mode only; a
    serial run cannot preempt a running job).  See :func:`_run_pool`
    for the limits of timing out a job that is already running.

    ``engine`` selects the verification substrate (see
    :mod:`repro.semantics.engine`); the JSON report is byte-identical
    across engines by construction.  Parallel mode draws workers from
    the persistent pool (:mod:`repro.analysis.pool`): the first pooled
    run spawns it, and later runs reuse the live workers — and their
    accumulated caches — outright.  A run fully served from the
    verdict store schedules no jobs and touches no pool at all,
    whatever ``jobs`` says.

    ``cache_dir`` names a provenance store root and turns on the
    incremental mode: entries whose verdict key is already memoized
    skip replay and verification entirely, and fresh clean verdicts
    are recorded for the next run.  ``None`` (the default) disables
    caching — every entry runs.

    When metrics collection is on (:func:`repro.obs.collecting`), the
    run is traced end to end: each pooled job collects in a registry of
    its own and ships its snapshot back with its records, and the
    parent merges those snapshots in deterministic plan order, so the
    final snapshot is independent of worker scheduling
    (:func:`repro.api.batch` attaches it with ``metrics=True``).
    """
    cfg = config if config is not None else RunConfig()
    resolved = cfg.resolve_engine()
    entries = resolve_names(names)
    started = time.perf_counter()

    with obs.span("batch"), contextlib.ExitStack() as stack:
        store = None
        keys: Dict[str, Dict[str, object]] = {}
        cached: Dict[str, JobResult] = {}
        if cfg.cache_dir is not None:
            from ..provenance import TraceStore, code_epoch

            # Closed on the way out: a sqlite connection sits in a
            # reference cycle, so one left open keeps its native memory
            # until a full garbage collection.
            store = stack.enter_context(
                contextlib.closing(TraceStore(cfg.cache_dir))
            )
            epoch = code_epoch()
            for entry in entries:
                key = entry_verdict_key(
                    entry,
                    resolved.name,
                    cfg.trials,
                    cfg.seed,
                    cfg.verify,
                    epoch=epoch,
                    symbolic=cfg.symbolic,
                )
                keys[entry.name] = key
                artifact = store.lookup_verdict(key)
                if artifact is not None:
                    result = _result_from_artifact(entry, artifact)
                    if result is not None:
                        cached[entry.name] = result

        miss_entries = tuple(
            entry for entry in entries if entry.name not in cached
        )
        jobs = plan_jobs(
            miss_entries,
            cfg.trials,
            cfg.seed,
            cfg.verify,
            resolved.name,
            cfg.symbolic,
        )
        _clear_replay_cache()
        if cfg.jobs == 1 or not jobs:
            # Serial runs never construct a pool, and neither does a
            # pooled run whose every entry was served from the verdict
            # store — a warm request must not pay for process spin-up
            # it will not use (the spawn counter stays flat).
            outcomes = [execute_shards(job) for job in jobs]
        else:
            outcomes = _run_pool(jobs, cfg.jobs, cfg.timeout)
            if obs.enabled():
                # Pool workers counted into *their* registries, not
                # ours: merge the snapshots they shipped back, in plan
                # order so the result is scheduling-independent.  The
                # serial path above shares this process's registry, so
                # its jobs are already counted — merging would double.
                for records in outcomes:
                    head = records[0]
                    if head is not None and "metrics" in head:
                        obs.merge(head["metrics"])
        fresh = {
            result.name: result
            for result in _aggregate(miss_entries, jobs, outcomes)
        }
        results = [
            cached[entry.name] if entry.name in cached else fresh[entry.name]
            for entry in entries
        ]
        if store is not None:
            traces: Dict[str, object] = {}
            for job, records in zip(jobs, outcomes):
                head = records[0]
                if head is not None and "trace" in head:
                    traces.setdefault(job.name, head["trace"])
            _record_verdicts(store, results, keys, traces)
        if obs.enabled():
            for result in results:
                status = (
                    "cached"
                    if result.cached
                    else ("ok" if result.ok else "failed")
                )
                obs.inc("repro_batch_entries_total", status=status)
            hits = sum(1 for result in results if result.cached)
            rate = (
                hits / len(results) if store is not None and results else 0.0
            )
            obs.gauge_set("repro_provenance_hit_rate", rate)
    report = BatchReport(
        results=results,
        seed=cfg.seed,
        trials=cfg.trials,
        verify=cfg.verify,
        elapsed=time.perf_counter() - started,
        jobs=cfg.jobs,
        engine=resolved.name,
        cache_enabled=store is not None,
    )
    return report
