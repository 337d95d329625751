"""The stable Python facade over the EXTRA reproduction.

Everything the ``python -m repro`` CLI can do, as plain typed
functions returning plain typed results:

* :func:`analyze` — replay one recorded analysis end to end;
* :func:`verify` — differentially verify one analysis;
* :func:`prove` — symbolically prove (or refute) one analysis's binding;
* :func:`batch` — run the catalog (or a subset) as a parallel batch;
* :func:`trace` — one analysis's recorded derivation trace;
* :func:`replay` — re-apply recorded derivations with digest checks;
* :func:`stats` — run an instrumented batch and return its metrics;
* :func:`machines` — the spec-derived machine registry with coverage
  and cost-model summaries.

The CLI subcommands and the HTTP service reach these functions through
one operation table (:mod:`repro.operations`), so scripting a workflow
never means shelling out and re-parsing text: ``api.batch(...).to_json()``
is the same bytes ``repro batch --json`` prints and ``POST /batch``
answers.

Run plans are :class:`~repro.analysis.config.RunConfig` values — the
one parameter surface shared with the engine room.  Name errors raise
:class:`~repro.analysis.runner.UnknownAnalysisError` (a ``ValueError``)
with the same message the CLI prints before exiting 2.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import obs
from .analysis.config import RunConfig
from .analysis.report import AnalysisOutcome, full_report
from .analysis.runner import (
    BatchReport,
    JobResult,
    UnknownAnalysisError,
    resolve_names,
    run_batch,
)

__all__ = [
    "AnalyzeResult",
    "BatchResult",
    "MachineInfo",
    "MachinesResult",
    "ProveResult",
    "ReplayEntry",
    "ReplayResult",
    "RunConfig",
    "StatsResult",
    "TraceResult",
    "UnknownAnalysisError",
    "VerifyResult",
    "analyze",
    "batch",
    "machines",
    "prove",
    "replay",
    "stats",
    "trace",
    "verify",
]


def _module_for(name: str):
    """The analysis module behind ``name`` (validated via the catalog)."""
    try:
        resolve_names([name])
    except UnknownAnalysisError:
        # Single-name entry points speak in the singular (and the CLI
        # pins this exact message).
        raise UnknownAnalysisError(
            f"unknown analysis {name!r}; try: python -m repro list"
        ) from None
    return importlib.import_module(f"repro.analyses.{name}")


# ---------------------------------------------------------------------------
# analyze


@dataclass(frozen=True)
class AnalyzeResult:
    """One analysis replay: the outcome plus ready-made views of it."""

    name: str
    outcome: AnalysisOutcome

    @property
    def succeeded(self) -> bool:
        return self.outcome.succeeded

    @property
    def steps(self) -> Optional[int]:
        binding = self.outcome.binding
        return None if binding is None else binding.steps

    @property
    def failure(self) -> Optional[str]:
        return self.outcome.failure

    @property
    def report(self) -> str:
        """The full human-readable report (what ``repro analyze`` prints)."""
        return full_report(self.outcome)


def analyze(name: str, config: Optional[RunConfig] = None) -> AnalyzeResult:
    """Replay one recorded analysis script end to end.

    ``config`` carries trials/engine for the verification pass; with
    ``verify=False`` it replays the transformation sequence only.
    """
    cfg = config if config is not None else RunConfig()
    outcome = _module_for(name).run(
        verify=cfg.verify, trials=cfg.trials, engine=cfg.resolve_engine()
    )
    return AnalyzeResult(name=name, outcome=outcome)


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyResult:
    """Differential-verification verdict for one analysis."""

    name: str
    ok: bool
    verified_trials: int
    engine: str
    trials: int
    seed: int
    failure: Optional[str] = None
    error: Optional[str] = None


def verify(
    name: str,
    *,
    engine=None,
    trials: int = 120,
    seed: int = 1982,
    symbolic: bool = False,
    cache_dir=None,
) -> VerifyResult:
    """Differentially verify one analysis on randomized states.

    Runs the same sharded plan as ``repro verify NAME`` (replay,
    lint gate, then ``trials`` trials against the scenario stream) and
    folds the verdict into one :class:`VerifyResult`.  ``symbolic=True``
    runs the prove-then-sample fast path: a proved binding drops each
    shard to a short confirmation window (``verified_trials`` then
    reports the trials that actually ran).  A store at ``cache_dir``
    answers a repeat.
    """
    _module_for(name)
    config = RunConfig(
        engine=engine, trials=trials, seed=seed, verify=True,
        symbolic=symbolic, cache_dir=cache_dir,
    )
    report = run_batch(names=[name], config=config)
    (result,) = report.results
    return VerifyResult(
        name=name,
        ok=result.ok,
        verified_trials=result.verified_trials,
        engine=report.engine,
        trials=report.trials,
        seed=report.seed,
        failure=result.failure,
        error=result.error,
    )


# ---------------------------------------------------------------------------
# prove


@dataclass(frozen=True)
class ProveResult:
    """Symbolic equivalence verdict for one analysis.

    ``verdict`` is one of the prover's three
    (``proved``/``refuted``/``unknown``) plus ``skipped`` for catalog
    entries the prover cannot judge (no binding — expected-failure
    demonstrations — or no verification scenario).
    """

    name: str
    verdict: str
    operator_name: Optional[str] = None
    instruction_name: Optional[str] = None
    reason: Optional[str] = None
    term_nodes: int = 0
    unroll_depth: int = 0
    #: the refuting concrete model's operator-side inputs, if refuted.
    counterexample: Optional[Dict[str, int]] = None
    message: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True unless the prover *refuted* the binding."""
        return self.verdict != "refuted"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "operator": self.operator_name,
            "instruction": self.instruction_name,
            "reason": self.reason,
            "term_nodes": self.term_nodes,
            "unroll_depth": self.unroll_depth,
            "counterexample": self.counterexample,
            "message": self.message,
        }


def prove(name: str, *, seed: int = 1982, **budgets) -> ProveResult:
    """Symbolically prove or refute one analysis's binding.

    Replays the analysis (transformations only), then runs both final
    descriptions through the bounded symbolic executor under the
    scenario spec's input bounds (see :func:`repro.symbolic\
    .prove_binding`).  ``budgets`` forwards ``max_nodes`` /
    ``unroll_budget`` / ``max_stmts`` / ``search_trials``.
    """
    from .symbolic import prove_binding

    module = _module_for(name)
    outcome = module.run(verify=False)
    scenario = getattr(module, "SCENARIO", None)
    if not outcome.succeeded or outcome.binding is None:
        return ProveResult(
            name=name,
            verdict="skipped",
            reason="analysis does not produce a binding",
        )
    if scenario is None:
        return ProveResult(
            name=name,
            verdict="skipped",
            reason="no verification scenario",
        )
    report = prove_binding(outcome.binding, scenario, seed=seed, **budgets)
    counterexample = None
    if report.counterexample is not None:
        counterexample = dict(sorted(report.counterexample.inputs.items()))
    return ProveResult(
        name=name,
        verdict=report.verdict,
        operator_name=report.operator_name,
        instruction_name=report.instruction_name,
        reason=report.reason,
        term_nodes=report.term_nodes,
        unroll_depth=report.unroll_depth,
        counterexample=counterexample,
        message=report.message,
    )


# ---------------------------------------------------------------------------
# batch


@dataclass(frozen=True)
class BatchResult:
    """One batch run: the full report plus its canonical JSON."""

    report: BatchReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def results(self) -> List[JobResult]:
        return self.report.results

    @property
    def metrics(self) -> Optional[Dict[str, object]]:
        """The run's metrics snapshot (None unless collected)."""
        return self.report.metrics

    def to_json(self) -> str:
        """Byte-identical to what ``repro batch --json`` prints."""
        return self.report.to_json()

    def summary_lines(self) -> List[str]:
        return self.report.summary_lines()


def batch(
    names: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
    *,
    metrics: bool = False,
) -> BatchResult:
    """Run the analysis catalog (or ``names``) as a parallel batch.

    ``metrics=True`` collects an observability snapshot for this run
    (unless collection is already on, in which case the surrounding
    registry keeps collecting) and attaches it to the report; without
    it the report carries no metrics block.
    """
    collect = metrics and not obs.enabled()
    with obs.collecting() if collect else contextlib.nullcontext():
        report = run_batch(names=names, config=config)
        if metrics:
            report.metrics = obs.snapshot()
    return BatchResult(report=report)


# ---------------------------------------------------------------------------
# trace


@dataclass(frozen=True)
class TraceResult:
    """One analysis's derivation trace and where it came from."""

    name: str
    #: ``stored`` (from the provenance store) or ``fresh`` (re-derived).
    origin: str
    trace: object  # AnalysisTrace

    @property
    def digest(self) -> str:
        return self.trace.digest()

    @property
    def steps(self) -> int:
        return self.trace.steps

    def log(self) -> str:
        return self.trace.log()

    def to_dict(self) -> Dict[str, object]:
        return self.trace.to_dict()


def trace(name: str, *, cache_dir=None) -> Optional[TraceResult]:
    """The recorded derivation for ``name``, or None if there is none.

    Prefers the provenance store (``cache_dir``; pass None to skip the
    store and always re-derive) and falls back to recording a fresh
    derivation, mirroring ``repro trace``.
    """
    from .provenance import TraceStore, trace_for

    _module_for(name)
    store = None if cache_dir is None else TraceStore(cache_dir)
    # Closed like run_batch's: an open sqlite connection sits in a
    # reference cycle and keeps its native memory until a full collection.
    with contextlib.closing(store) if store is not None else contextlib.nullcontext():
        recorded, origin = trace_for(store, name)
    if recorded is None:
        return None
    return TraceResult(name=name, origin=origin, trace=recorded)


# ---------------------------------------------------------------------------
# replay


@dataclass(frozen=True)
class ReplayEntry:
    """Digest-check verdict for one recorded derivation."""

    name: str
    ok: bool
    origin: str  # "stored" | "fresh" | "none"
    steps: Optional[int] = None
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-applying recorded derivations with digest checks."""

    entries: Tuple[ReplayEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def failed(self) -> int:
        return sum(1 for entry in self.entries if not entry.ok)


def replay(
    names: Optional[Sequence[str]] = None,
    *,
    cache_dir=None,
) -> ReplayResult:
    """Re-apply recorded derivations step by step with digest checks.

    ``names=None`` replays the whole catalog.  Stored traces (from
    ``cache_dir``) are checked against the *current* code and input
    descriptions, so any drift since recording surfaces as a failed
    entry — this is the drift gate behind ``repro replay``.
    """
    from .provenance import TraceStore, replay_analysis, trace_for
    from .transform import ReplayDivergenceError, TransformError

    entries = resolve_names(names)
    store = None if cache_dir is None else TraceStore(cache_dir)
    verdicts: List[ReplayEntry] = []
    with contextlib.closing(store) if store is not None else contextlib.nullcontext():
        for entry in entries:
            module = importlib.import_module(f"repro.analyses.{entry.name}")
            recorded, origin = trace_for(store, entry.name)
            if recorded is None:
                verdicts.append(
                    ReplayEntry(entry.name, False, origin, error="no trace recorded")
                )
                continue
            error = None
            try:
                replay_analysis(recorded, module.OPERATOR(), module.INSTRUCTION())
            except (ReplayDivergenceError, TransformError) as failure:
                error = str(failure)
            verdicts.append(
                ReplayEntry(
                    name=entry.name,
                    ok=error is None,
                    origin=origin,
                    steps=recorded.steps,
                    digest=recorded.digest(),
                    error=error,
                )
            )
    return ReplayResult(entries=tuple(verdicts))


# ---------------------------------------------------------------------------
# stats


@dataclass(frozen=True)
class StatsResult:
    """A metrics snapshot plus its two wire formats."""

    snapshot: Dict[str, object]

    def to_json(self) -> str:
        """Canonical JSON (the ``--metrics-out`` file format)."""
        return obs.export_json(self.snapshot)

    def to_prometheus(self) -> str:
        """Prometheus text exposition covering every declared family."""
        return obs.export_prometheus(self.snapshot)

    def counter(self, name: str, /, **labels: str) -> int:
        """Sum of a counter's samples matching ``labels`` (a subset)."""
        return obs.counter_value(self.snapshot, name, **labels)

    def gauge(self, name: str, /, **labels: str) -> Optional[float]:
        """A gauge sample's value under exactly ``labels``, or None."""
        return obs.gauge_value(self.snapshot, name, **labels)


def stats(
    names: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
) -> StatsResult:
    """Run an instrumented batch and return its metrics snapshot.

    This is ``repro stats``: every hot path (parse/compile caches,
    engines, verification, the provenance store) reports into one
    registry for the duration of the run.  The batch *verdict* is
    deliberately not part of the result — use :func:`batch` when the
    verdict matters.

    The snapshot also carries lint-coverage gauges
    (``repro_lint_coverage_targets``) for every catalog machine and
    language module, so catalog-only stub machines (no ISDL
    descriptions to lint) show up as ``status="no-descriptions"``
    rows instead of being silently absent — plus the per-machine
    spec-coverage gauges (``repro_machine_coverage``) behind the CI
    coverage gate.
    """
    from .lint import lint_coverage

    with obs.collecting() as registry:
        run_batch(names=names, config=config)
        for row in lint_coverage():
            obs.gauge_set(
                "repro_lint_coverage_targets",
                len(row["targets"]),
                name=str(row["name"]),
                status=str(row["status"]),
            )
        for info in machines().machines:
            for kind, value in (
                ("instructions", info.instructions),
                ("modeled", info.modeled),
                ("reconstructed", info.reconstructed),
                ("simulated", info.simulated),
                ("fuzz_cases", info.fuzz_cases),
            ):
                obs.gauge_set(
                    "repro_machine_coverage",
                    value,
                    machine=info.key,
                    kind=kind,
                )
        return StatsResult(snapshot=registry.snapshot())


# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class MachineInfo:
    """One machine's spec-derived summary row."""

    key: str
    name: str
    manufacturer: str
    word_bits: int
    paper: bool
    instructions: int
    modeled: int
    reconstructed: int
    simulated: int
    operations: int
    fuzz_cases: int
    #: :func:`repro.machines.spec.cost_summary` of the operation table.
    cost: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class MachinesResult:
    """The machine registry as data: what ``repro machines`` prints."""

    machines: Tuple[MachineInfo, ...]

    def machine(self, key: str) -> MachineInfo:
        for info in self.machines:
            if info.key == key:
                return info
        raise KeyError(f"unknown machine {key!r}")

    def to_json(self) -> str:
        """Byte-identical to ``repro machines --format json``."""
        payload = {
            "schema": "repro.machines/1",
            "machines": [info.to_dict() for info in self.machines],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def machines() -> MachinesResult:
    """Spec-derived machine list with coverage and cost summaries.

    One row per registered machine spec (paper sample first), counting
    catalog instructions, modeled/reconstructed/simulated splits, the
    operation table, and the differential-fuzz cases — the same
    numbers ``repro stats`` exports as ``repro_machine_coverage``
    gauges.
    """
    from .machines.registry import all_specs
    from .machines.spec import cost_summary

    rows = []
    for spec in all_specs():
        rows.append(
            MachineInfo(
                key=spec.key,
                name=spec.name,
                manufacturer=spec.manufacturer,
                word_bits=spec.word_bits,
                paper=spec.paper,
                instructions=spec.count,
                modeled=len(spec.modeled()),
                reconstructed=len(spec.reconstructed()),
                simulated=len(spec.simulated()),
                operations=len(spec.operations),
                fuzz_cases=len(spec.fuzz),
                cost=cost_summary(spec),
            )
        )
    return MachinesResult(machines=tuple(rows))
