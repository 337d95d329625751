"""Parallel batch engine for the full analysis catalog.

The paper's EXTRA system analyzed one instruction at a time,
interactively; this reproduction replays every recorded analysis and
differentially verifies each result.  Done serially that is the
slowest path in the repo, yet the workload is embarrassingly parallel:
every analysis is independent, and within one analysis every
randomized verification trial is independent too.

This module turns the one-shot replay into a service-shaped pipeline:

* the catalog is decomposed into *jobs* — one replay job per analysis
  plus, for verified analyses, one job per contiguous *shard* of its
  randomized trials (:func:`shard_plan`);
* jobs run on the *persistent* process pool shared with the analysis
  service (:mod:`repro.analysis.pool`) with a configurable worker
  count and per-job timeout, and every job returns a structured
  success/failure record instead of aborting the batch on the first
  exception; the pool outlives the batch, so back-to-back pooled runs
  reuse live, cache-warm workers instead of re-forking;
* a serial run hands an entry's shards, up to :data:`RUN_SHARDS` at a
  time, to one :func:`execute_shards` call, which verifies them as one
  wide batch per final description and still returns one record per
  shard;
* shard seeds derive deterministically from the single root seed (see
  :func:`repro.semantics.randomgen.derive_seed`), so scenario ``i`` is
  the same machine state whether it runs in shard 0 of 1 or shard 3 of
  4 — ``--jobs N`` never changes the results, only the wall clock;
* results aggregate in catalog order, so two runs with the same seed
  produce byte-identical JSON reports (timing lives outside the JSON).

Within a worker process, replayed analyses are memoized per module (a
worker verifying three shards of ``scasb_rigel`` replays the script
once) and the parsers behind them are content-keyed
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
import importlib
import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.metrics import diff_snapshots
from ..semantics.engine import DEFAULT_ENGINE
from .config import RunConfig
from .report import canonical_report_json

#: trials per verification shard; fixed (never derived from the worker
#: count) so the shard layout — and therefore the report — is identical
#: at every ``--jobs`` setting.
SHARD_TRIALS = 64

#: most shards of one entry a serial run verifies in one call.  Their
#: windows share one batch per description, whose memory grows with its
#: lanes (about 1.4 KB each) while the per-lane time stops falling at a
#: few thousand lanes, so longer runs go 4,096 trials at a time.
RUN_SHARDS = 64

#: JSON report schema identifier.
SCHEMA = "repro.batch/1"


class UnknownAnalysisError(ValueError):
    """A requested analysis name is not in the catalog."""


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
class ShardSpec:
    """One unit of pool work: replay ``name``, verify ``count`` trials.

    ``count == 0`` means replay-only (failure demonstrations, or
    ``verify=False`` runs).  ``offset`` positions the shard inside the
    analysis's scenario stream.
    """

    name: str
    offset: int
    count: int
    seed: int
    engine: str = DEFAULT_ENGINE
    #: run the symbolic prove-then-sample fast path in each shard.
    symbolic: bool = False
    #: collect a metrics delta for this job even when the executing
    #: process has no fork-inherited registry.  Set by the pool path at
    #: submission time: a *persistent* pool's workers may predate the
    #: parent's ``obs.collecting()`` window, so worker-side collection
    #: must be requested explicitly rather than inherited by fork.
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
    #: wall-clock seconds, summed over this entry's jobs.  Excluded
    #: from the JSON report so identical runs stay byte-identical.
    duration: float = 0.0
    #: parse + compile cache misses observed inside this entry's jobs.
    #: Excluded from the JSON report (a worker's cache temperature is
    #: an implementation detail); asserted on by the benchmarks.
    cache_misses: int = 0
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
) -> List[ShardSpec]:
    """The deterministic job list for one batch invocation.

    Every entry gets at least one job.  Verified entries are sharded;
    each shard re-derives the binding in its worker (the replay is
    memoized per process) and verifies its window of the scenario
    stream.  Entries expected to fail get a replay-only job.
    """
    specs: List[ShardSpec] = []
    for entry in entries:
        wants_verify = verify and entry.has_scenario and not entry.expect_failure
        windows = shard_plan(trials) if wants_verify else ()
        if not windows:
            specs.append(ShardSpec(entry.name, 0, 0, seed, engine, symbolic))
            continue
        for offset, count in windows:
            specs.append(
                ShardSpec(entry.name, offset, count, seed, engine, symbolic)
            )
    return specs


@lru_cache(maxsize=None)
def _replay(name: str):
    """Replay one analysis script (no verification), memoized per process."""
    with obs.span("replay", analysis=name):
        module = importlib.import_module(f"repro.analyses.{name}")
        return module, module.run(verify=False)


def _clear_replay_cache() -> None:
    _replay.cache_clear()


def _cache_miss_count() -> int:
    """Total parse + kernel cache misses in this process so far."""
    from ..isdl.cache import cache_stats
    from ..semantics.vectorized import vector_cache_stats

    return (
        sum(stats["misses"] for stats in cache_stats().values())
        + vector_cache_stats()["misses"]
    )


def preload_caches(specs: Sequence[ShardSpec]) -> None:
    """Warm every cache the workers will need, in the parent process.

    On platforms that fork (the Linux default), worker processes
    inherit the parent's memory copy-on-write, so replaying each
    analysis and lowering its final descriptions *once* here means no
    worker ever parses or lowers cold — ``execute_shards``'s
    ``cache_misses`` accounting stays at zero per worker, which
    ``tests/analysis/test_preload.py`` asserts.

    Per-entry failures are swallowed: a broken analysis must surface as
    that entry's structured job record, not abort the whole batch here.
    """
    from ..semantics.vectorized import compile_vectorized

    seen = set()
    for spec in specs:
        if spec.name in seen:
            continue
        seen.add(spec.name)
        try:
            module, outcome = _replay(spec.name)
            if spec.engine != "interp" and outcome.succeeded and outcome.binding:
                compile_vectorized(outcome.binding.final_operator)
                compile_vectorized(outcome.binding.augmented_instruction)
            if spec.symbolic and outcome.succeeded and outcome.binding:
                scenario = getattr(module, "SCENARIO", None)
                if scenario is not None:
                    # Warm the content-keyed prove cache pre-fork: every
                    # shard of this entry then hits it instead of
                    # re-running symbolic execution per worker.
                    from ..symbolic import prove_binding

                    prove_binding(
                        outcome.binding, scenario, seed=spec.seed
                    )
        except Exception:  # noqa: BLE001 - the worker will report it
            continue


def execute_shards(specs: Sequence[ShardSpec]) -> List[Dict[str, object]]:
    """Run shards of one entry; always returns one structured,
    picklable record per shard, in order.

    The entry is replayed and lint-gated once, and every shard that
    verifies trials is one window of a single
    :func:`~repro.analysis.verify.verify_binding` call, so on the
    vectorized engine each final description runs once over all of
    the run's trials.  The serial runner passes an entry's shards
    :data:`RUN_SHARDS` at a time; a pool job passes one.  Each shard
    still gets its own verdict: a window that fails leaves the other
    windows' records as they are.

    A successfully replayed binding is lint-gated *before* any trial
    runs: gate rejections land in ``record["error"]`` with a
    ``LintGateError:`` prefix — structurally distinct from a fuzz
    mismatch (``record["failure"]``) and from a timeout (no record).
    The run's duration, cache misses and metrics delta ride on its
    first record.
    """
    from ..lint import LintGateError, lint_binding
    from .verify import VerificationFailure, verify_binding

    first = specs[0]
    started = time.perf_counter()
    misses_before = _cache_miss_count()
    registry = obs.active()
    local_collect = None
    if registry is None and first.collect:
        # A persistent-pool worker forked before collection was turned
        # on in the parent: install a job-local registry so the delta
        # this shard produces still rides the record back.
        local_collect = obs.collecting()
        registry = local_collect.__enter__()
    metrics_before = registry.snapshot() if registry is not None else None
    records: List[Dict[str, object]] = [
        {
            "name": spec.name,
            "offset": spec.offset,
            "count": spec.count,
            "succeeded": False,
            "steps": None,
            "failure": None,
            "verified": 0,
            "error": None,
            "duration": 0.0,
            "cache_misses": 0,
        }
        for spec in specs
    ]
    try:
        with obs.span("shard", analysis=first.name):
            module, outcome = _replay(first.name)
            for record in records:
                record["succeeded"] = outcome.succeeded
                record["steps"] = outcome.steps
                record["failure"] = outcome.failure
            if outcome.succeeded:
                gate = lint_binding(outcome.binding)
                if gate:
                    raise LintGateError(tuple(gate))
            scenario = getattr(module, "SCENARIO", None)
            verifying = [record for record in records if record["count"]]
            if outcome.succeeded and scenario is not None and verifying:
                reports = verify_binding(
                    outcome.binding,
                    scenario,
                    config=RunConfig(
                        engine=first.engine,
                        seed=first.seed,
                        symbolic=first.symbolic,
                    ),
                    windows=[
                        (record["offset"], record["count"])
                        for record in verifying
                    ],
                    gate="sampled",
                )
                for record, report in zip(verifying, reports):
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
    head = records[0]
    head["duration"] = time.perf_counter() - started
    head["cache_misses"] = _cache_miss_count() - misses_before
    if registry is not None and metrics_before is not None:
        # In a pool worker this delta rides the record back to the
        # parent, which merges deltas in deterministic plan order; in
        # serial mode the shared registry already holds these counts,
        # so the parent must NOT merge (see run_batch).
        head["metrics"] = diff_snapshots(metrics_before, registry.snapshot())
    if local_collect is not None:
        local_collect.__exit__(None, None, None)
    return records


def _aggregate(
    entries: Sequence[CatalogEntry],
    records: Dict[Tuple[str, int], Optional[Dict[str, object]]],
    specs: Sequence[ShardSpec],
) -> List[JobResult]:
    """Fold shard records into one :class:`JobResult` per entry."""
    by_entry: Dict[str, List[Tuple[ShardSpec, Optional[Dict[str, object]]]]] = {}
    for spec in specs:
        by_entry.setdefault(spec.name, []).append(
            (spec, records.get((spec.name, spec.offset)))
        )
    results = []
    for entry in entries:
        result = JobResult(
            name=entry.name,
            group=entry.group,
            expected="failure" if entry.expect_failure else "success",
        )
        saw_record = False
        for spec, record in by_entry.get(entry.name, ()):
            result.shards += 1
            if record is None:
                result.timed_out = True
                continue
            result.duration += float(record.get("duration") or 0.0)
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
            result.cache_misses += int(record.get("cache_misses") or 0)
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
    entries: Sequence[CatalogEntry],
    results: Sequence[JobResult],
    keys: Dict[str, Dict[str, object]],
) -> None:
    """Memoize every fresh, clean verdict of this batch.

    Only ``ok`` results are stored: an errored or timed-out entry must
    be re-attempted on the next run, never replayed from the cache.
    The full two-sided analysis trace (durations stripped, so equal
    derivations share one object) is stored as an object of its own,
    before the verdict artifact that names it by digest: a store hit
    reads only the verdict, and ``repro replay`` follows the reference
    to re-check the derivation later.
    """
    from ..provenance import STORE_SCHEMA, analysis_trace_digest, strip_durations

    by_name = {entry.name: entry for entry in entries}
    for result in results:
        if result.cached or not result.ok or result.name not in keys:
            continue
        if result.name not in by_name:
            continue
        try:
            _, outcome = _replay(result.name)
        except Exception:  # noqa: BLE001 - caching is best-effort
            continue
        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "key": keys[result.name],
            "result": _result_payload(result),
        }
        trace = outcome.trace
        if trace is not None:
            payload["trace"] = store.put_object(
                strip_durations(trace.to_dict())
            )
            payload["trace_digest"] = analysis_trace_digest(trace)
        store.record_verdict(keys[result.name], payload)


#: distinct error sentinel for worker crashes (OOM, segfault): a dead
#: worker is not a timeout and must not be reported as one.
_BROKEN_POOL_ERROR = "BrokenProcessPool: worker process died unexpectedly"


def _error_record(spec: ShardSpec, message: str) -> Dict[str, object]:
    """A structured record for a job whose worker never returned one."""
    return {
        "name": spec.name,
        "offset": spec.offset,
        "count": spec.count,
        "succeeded": False,
        "steps": None,
        "failure": None,
        "verified": 0,
        "error": message,
        "duration": 0.0,
        "cache_misses": 0,
    }


def _run_pool(
    specs: Sequence[ShardSpec],
    jobs: int,
    timeout: Optional[float],
) -> Dict[Tuple[str, int], Optional[Dict[str, object]]]:
    """Execute ``specs`` on the persistent process pool with timeouts.

    The pool comes from :mod:`repro.analysis.pool` and **outlives this
    call**: the first pooled batch spawns it, later batches reuse it —
    together with every parse/compile/replay cache its workers have
    warmed.  When a fresh pool is spawned, the parent's caches are
    preloaded *before* the first submission so the lazily forked
    workers inherit them copy-on-write (:func:`preload_caches`); a
    reused pool skips the preload — its workers are already warm (or
    will replay on demand, memoized per process).

    Submission is throttled to the number of free worker slots, so a
    job's dispatch time is (to within scheduler noise) the time its
    worker starts it; each job's ``timeout`` deadline is measured from
    there — a job queued behind others is never charged for its wait.

    A running process task cannot be preempted: a job that misses its
    deadline is recorded as timed out and its worker slot is written
    off (the abandoned worker keeps running; the pool is *invalidated*
    at the end, so the next pooled run starts fresh).  Jobs that can
    no longer be scheduled because every slot has been written off are
    reported as timed out too.  A worker crash breaks the whole pool,
    so the crashed job and all still-unfinished jobs are recorded with
    a distinct ``BrokenProcessPool`` error, never as timeouts — and
    the broken pool is likewise invalidated rather than reused.
    """
    import dataclasses

    from .pool import get_pool

    manager = get_pool()
    pool, fresh = manager.acquire(jobs)
    if fresh:
        preload_caches(specs)
    # A persistent pool's workers may have forked before this run's
    # metrics window opened, so worker-side collection is requested
    # per job instead of relying on fork-inherited registries.
    collect = obs.enabled()
    records: Dict[Tuple[str, int], Optional[Dict[str, object]]] = {}
    queue = list(specs)
    pending: Dict[concurrent.futures.Future, Tuple[ShardSpec, float]] = {}
    abandoned = 0  # slots held by timed-out jobs that cannot be preempted
    broken = False
    try:
        while queue or pending:
            while queue and not broken and len(pending) < jobs - abandoned:
                spec = queue.pop(0)
                job = (
                    dataclasses.replace(spec, collect=True)
                    if collect and not spec.collect
                    else spec
                )
                try:
                    future = pool.submit(execute_shards, (job,))
                except (
                    RuntimeError,
                    concurrent.futures.process.BrokenProcessPool,
                ):
                    # BrokenProcessPool: a worker died.  RuntimeError:
                    # the executor was shut down underneath us (e.g. a
                    # concurrent invalidation).  Either way this pool
                    # cannot take more work.
                    broken = True
                    records[(spec.name, spec.offset)] = _error_record(
                        spec, _BROKEN_POOL_ERROR
                    )
                    break
                pending[future] = (spec, time.monotonic())
            if queue and (broken or jobs - abandoned <= 0):
                for spec in queue:
                    records[(spec.name, spec.offset)] = (
                        _error_record(spec, _BROKEN_POOL_ERROR)
                        if broken
                        else None
                    )
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
                spec, _dispatched = pending.pop(future)
                key = (spec.name, spec.offset)
                try:
                    (records[key],) = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    broken = True
                    records[key] = _error_record(spec, _BROKEN_POOL_ERROR)
                except Exception as error:  # noqa: BLE001 - structured
                    records[key] = _error_record(
                        spec, f"{type(error).__name__}: {error}"
                    )
            if timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_spec, dispatched) in pending.items()
                    if now - dispatched >= timeout
                ]
                for future in expired:
                    spec, _dispatched = pending.pop(future)
                    if not future.cancel():
                        abandoned += 1
                    records[(spec.name, spec.offset)] = None
    finally:
        if broken or abandoned:
            # Damaged pools are never reused: a crash poisons the
            # executor and an abandoned worker is still chewing on a
            # timed-out job.  The next pooled run spawns fresh.
            manager.invalidate(pool)
    return records


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
    run warms the parent's parse and compile caches before the pool's
    workers fork (:func:`preload_caches`), and later runs reuse the
    live workers — and their accumulated caches — outright.  A run
    fully served from the verdict store schedules no jobs and touches
    no pool at all, whatever ``jobs`` says.

    ``cache_dir`` names a provenance store root and turns on the
    incremental mode: entries whose verdict key is already memoized
    skip replay and verification entirely, and fresh clean verdicts
    are recorded for the next run.  ``None`` (the default) disables
    caching — every entry runs.

    When metrics collection is on (:func:`repro.obs.collecting`), the
    run is traced end to end: pool workers snapshot their registry
    around each shard and ship the delta back in the job record, and
    the parent merges those deltas in deterministic plan order, so the
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
        specs = plan_jobs(
            miss_entries,
            cfg.trials,
            cfg.seed,
            cfg.verify,
            resolved.name,
            cfg.symbolic,
        )
        _clear_replay_cache()
        records: Dict[Tuple[str, int], Optional[Dict[str, object]]] = {}
        if cfg.jobs == 1 or not specs:
            # Serial runs never construct a pool, and neither does a
            # pooled run whose every entry was served from the verdict
            # store — a warm request must not pay for process spin-up
            # it will not use (the spawn counter stays flat).  An
            # entry's shards run RUN_SHARDS per call, so they share one
            # replay and one wide batch per description.
            for _, shards in itertools.groupby(specs, lambda spec: spec.name):
                shards = tuple(shards)
                for start in range(0, len(shards), RUN_SHARDS):
                    run = shards[start : start + RUN_SHARDS]
                    for spec, record in zip(run, execute_shards(run)):
                        records[(spec.name, spec.offset)] = record
        else:
            records = _run_pool(specs, cfg.jobs, cfg.timeout)
            if obs.enabled():
                # Pool workers mutated *their* registries, not ours:
                # merge the per-shard deltas they shipped back, in plan
                # order so the result is scheduling-independent.  The
                # serial path above shares this process's registry, so
                # its shards are already counted — merging would double.
                for spec in specs:
                    worker_record = records.get((spec.name, spec.offset))
                    if isinstance(worker_record, dict):
                        delta = worker_record.get("metrics")
                        if isinstance(delta, dict):
                            obs.merge(delta)
        fresh = {
            result.name: result
            for result in _aggregate(miss_entries, records, specs)
        }
        results = [
            cached[entry.name] if entry.name in cached else fresh[entry.name]
            for entry in entries
        ]
        if store is not None:
            _record_verdicts(store, entries, results, keys)
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
