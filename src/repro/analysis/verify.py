"""Differential-testing verifier for completed analyses.

The paper's equivalence argument is the transformation sequence itself;
this reproduction adds a runtime check on top (see DESIGN.md): after the
matcher accepts a common form, both final descriptions are executed on
randomized machine states and must agree on outputs *and* final memory.
A disagreement means a transcription or transformation bug — this layer
is what caught "obscure bugs" for the paper's authors too (§5: comparing
EXTRA's results against hand analyses revealed compiler bugs).

Scenario values respect the binding's range constraints: an operand
bound to ``cx<15:0>`` is drawn within 16 bits, and an operand with a
coding constraint like mvc's is drawn within its shifted range.  That is
faithful to the system's contract — the code generator guarantees the
constraints before the instruction is ever emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import obs
from ..isdl import ast
from ..lint import LintGateError, lint_binding
from ..semantics.engine import (
    DEFAULT_ENGINE,
    EngineMismatchError,
    ExecutionEngine,
)
from ..semantics.randomgen import Scenario, ScenarioSpec, ScenarioStream
from ..semantics.vectorized import lanes_disagree
from .config import _UNSET, RunConfig, resolve_config

try:  # pragma: no cover - numpy is optional
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: historical default plan of this entry point: 200 trials (the batch
#: runner's default is 120 — the difference predates RunConfig and is
#: preserved through it).
_VERIFY_DEFAULTS = RunConfig(trials=200)


class VerificationFailure(Exception):
    """The two final descriptions disagreed on some machine state."""

    def __init__(self, message: str, scenario: Optional[Scenario] = None):
        super().__init__(message)
        self.scenario = scenario


#: Confirmation window for bindings the symbolic prover already proved
#: equivalent: enough concrete trials to catch a prover/model bug, a
#: small fraction of the full sweep.
CONFIRM_TRIALS = 16


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a differential-testing run.

    ``seed`` and ``offset`` record which window of the scenario stream
    ran, so sharded reports can be aggregated and any shard replayed.
    ``trials`` stays the *planned* sweep (part of the replayable plan);
    when the symbolic fast path shortened the run, ``executed_trials``
    records how many scenarios actually executed and ``prove_verdict``
    why.
    """

    trials: int
    operator_name: str
    instruction_name: str
    seed: int = 1982
    offset: int = 0
    engine: str = DEFAULT_ENGINE
    #: symbolic prover verdict when the fast path ran, else None.
    prove_verdict: Optional[str] = None
    #: scenarios actually executed when that differs from the plan.
    executed_trials: Optional[int] = None

    @property
    def confirmed_trials(self) -> int:
        """How many concrete scenarios this verdict actually rests on."""
        return self.trials if self.executed_trials is None else self.executed_trials

    def __str__(self) -> str:
        suffix = ""
        if self.prove_verdict is not None:
            suffix = f" [symbolic: {self.prove_verdict}, {self.confirmed_trials} confirmation trials]"
        return (
            f"{self.operator_name} == {self.instruction_name} on "
            f"{self.trials} randomized states{suffix}"
        )


def _operand_ranges(binding) -> Tuple[Tuple[str, int, int], ...]:
    """The binding's operand range constraints as ``(name, lo, hi)``.

    Extracted once per verification, not once per trial — constraint
    discovery walks the binding and is loop-invariant.
    """
    return tuple(
        (constraint.operand, constraint.lo, constraint.hi)
        for constraint in binding.range_constraints()
        if constraint.is_operand
    )


def _clip_to_ranges(
    inputs: Dict[str, int], ranges: Tuple[Tuple[str, int, int], ...]
) -> Dict[str, int]:
    """Clamp scenario inputs into the binding's operand ranges."""
    clipped = dict(inputs)
    for operand, lo, hi in ranges:
        if operand in clipped:
            value = clipped[operand]
            clipped[operand] = max(lo, min(hi, value))
    return clipped


def _clip_to_constraints(inputs: Dict[str, int], binding) -> Dict[str, int]:
    """One-shot clamp against a binding (see :func:`_clip_to_ranges`)."""
    return _clip_to_ranges(inputs, _operand_ranges(binding))


def _run_trial(
    operator_interp,
    instruction_interp,
    rename,
    ranges: Tuple[Tuple[str, int, int], ...],
    scenario: Scenario,
    engine_name: str,
    collect: bool,
) -> None:
    """One scalar differential trial; raises on any disagreement.

    The failure message is built from inputs and outputs only — never
    from engine internals — so the identical scenario produces the
    identical :class:`VerificationFailure` on every execution engine
    (the property the symbolic prover's counterexample replay relies
    on).
    """
    if collect:
        obs.inc("repro_verify_trials_total", engine=engine_name)
    inputs = _clip_to_ranges(scenario.inputs, ranges)
    mapped = {rename(k, k): v for k, v in inputs.items()}
    result_op = operator_interp.run(inputs, scenario.memory)
    result_in = instruction_interp.run(mapped, scenario.memory)
    if result_op.outputs != result_in.outputs:
        obs.inc("repro_verify_failures_total", engine=engine_name)
        raise VerificationFailure(
            f"outputs differ: operator {result_op.outputs} vs "
            f"instruction {result_in.outputs} on inputs {inputs}",
            scenario,
        )
    if result_op.memory != result_in.memory:
        diff = {
            addr: (
                result_op.memory.get(addr),
                result_in.memory.get(addr),
            )
            for addr in set(result_op.memory) | set(result_in.memory)
            if result_op.memory.get(addr) != result_in.memory.get(addr)
        }
        obs.inc("repro_verify_failures_total", engine=engine_name)
        raise VerificationFailure(
            f"final memories differ at {sorted(diff)[:8]} on inputs "
            f"{inputs}",
            scenario,
        )


def differential_trial(
    binding,
    scenario: Scenario,
    engine=None,
    gate: Optional[str] = None,
) -> None:
    """Run one concrete machine state through both final descriptions.

    The single-scenario form of :func:`verify_binding`'s trial loop:
    inputs are clipped to the binding's operand ranges, renamed through
    the operand map for the instruction side, and both descriptions
    must agree on outputs and final memory — otherwise the same
    :class:`VerificationFailure` the sampling loop would raise is
    raised here.  Used by the symbolic prover to validate and replay
    counterexamples engine-independently.
    """
    resolved = ExecutionEngine.resolve(engine, gate)
    _run_trial(
        resolved.executor(binding.final_operator),
        resolved.executor(binding.augmented_instruction),
        binding.operand_map.get,
        _operand_ranges(binding),
        scenario,
        resolved.name,
        obs.enabled(),
    )


def _clip_column(column, lo: int, hi: int):
    """Columnar :func:`_clip_to_ranges` for one batch input vector."""
    if _np is not None and isinstance(column, _np.ndarray):
        # minimum/maximum instead of clip: same result, no per-call
        # scalar-promotion bookkeeping on the hot path.
        return _np.minimum(_np.maximum(column, lo), hi)
    return [max(lo, min(hi, int(value))) for value in column]


def verify_binding(
    binding,
    spec: ScenarioSpec,
    config: Optional[RunConfig] = None,
    *,
    trials: object = _UNSET,
    seed: object = _UNSET,
    engine: object = _UNSET,
    offset: int = 0,
    gate: Optional[str] = None,
) -> VerificationReport:
    """Run both final descriptions on randomized states.

    The trial count, root seed, and engine come from ``config`` (a
    :class:`RunConfig`; this entry point's historical default is 200
    trials); the individual keywords are deprecated aliases (see
    :func:`repro.analysis.config.resolve_config`).  ``offset`` and
    ``gate`` stay real parameters — they are per-call verification
    mechanics, not part of the run plan.

    ``seed`` is the *root* seed of the whole verification; ``offset``
    selects a window of its scenario stream, so the batch runner can
    shard one verification across workers (scenario ``i`` is identical
    whether it runs in shard 0 of 1 or shard 3 of 4 — see
    :class:`repro.semantics.randomgen.ScenarioStream`).

    ``engine`` selects the execution substrate (``vectorized`` by
    default, which runs the whole trial window as one wide batch per
    description; ``interp`` is the reference semantics) and ``gate``
    how often vectorized lanes are cross-checked against the
    interpreter — ``always`` unless the caller says otherwise, so any
    miscompilation surfaces as
    :class:`~repro.semantics.engine.EngineMismatchError` before a
    verdict is reported.

    Raises :class:`VerificationFailure` on the first disagreement, and
    :class:`~repro.lint.LintGateError` — before any trial runs — when
    the static pre-flight finds the binding's constraints inconsistent
    with its own descriptions (see :func:`repro.lint.lint_binding`).
    """
    cfg = resolve_config(
        config,
        {"trials": trials, "seed": seed, "engine": engine},
        "verify_binding",
        defaults=_VERIFY_DEFAULTS,
    )
    gate_diagnostics = lint_binding(binding)
    if gate_diagnostics:
        raise LintGateError(tuple(gate_diagnostics))
    resolved = cfg.resolve_engine(gate)
    operator_desc = binding.final_operator
    instruction_desc = binding.augmented_instruction
    operator_interp = resolved.executor(operator_desc)
    instruction_interp = resolved.executor(instruction_desc)
    operand_map = binding.operand_map
    ranges = _operand_ranges(binding)

    collect = obs.enabled()
    rename = operand_map.get

    def trial(scenario: Scenario) -> None:
        """One scalar differential trial; raises on any disagreement."""
        _run_trial(
            operator_interp,
            instruction_interp,
            rename,
            ranges,
            scenario,
            resolved.name,
            collect,
        )

    def batch_trials(stream: ScenarioStream, count: int) -> None:
        """The whole trial window as one wide batch per description.

        A flagged lane is replayed as a scalar trial of the *same*
        executor, so the failure a caller sees — exception type,
        message, trial index, attached scenario — is byte-identical to
        what the scalar loop would have produced.
        """
        batch = stream.draw_batch(offset, count)
        columns = dict(batch.inputs)
        for operand, lo, hi in ranges:
            if operand in columns:
                columns[operand] = _clip_column(columns[operand], lo, hi)
        mapped_columns = {rename(k, k): v for k, v in columns.items()}
        result_op = operator_interp.run_batch(columns, batch, n=batch.n)
        result_in = instruction_interp.run_batch(
            mapped_columns, batch, n=batch.n
        )
        disagree = lanes_disagree(result_op, result_in)
        clean = (
            result_op.errors.count(None) == batch.n
            and result_in.errors.count(None) == batch.n
            and not (
                bool(disagree.any())
                if hasattr(disagree, "any")
                else any(disagree)
            )
        )
        if clean:
            if collect and count:
                obs.inc(
                    "repro_verify_trials_total",
                    count,
                    engine=resolved.name,
                )
            return
        problem = 0
        for lane in range(batch.n):
            if (
                result_op.errors[lane] is not None
                or result_in.errors[lane] is not None
                or disagree[lane]
            ):
                problem = lane
                break
        if collect and problem:
            obs.inc(
                "repro_verify_trials_total", problem, engine=resolved.name
            )
        trial(stream.window(offset + problem, 1)[0])
        raise EngineMismatchError(
            "vectorized engine flagged trial %d of %r vs %r but the "
            "scalar replay passed"
            % (offset + problem, operator_desc.name, instruction_desc.name)
        )

    prove_verdict: Optional[str] = None
    executed = cfg.trials
    if cfg.symbolic:
        from ..symbolic import PROVED, REFUTED, prove_binding

        prove_report = prove_binding(binding, spec, seed=cfg.seed)
        prove_verdict = prove_report.verdict
        if prove_verdict == REFUTED:
            # The prover extracted a concrete model; replaying it
            # through this engine's own trial path raises the exact
            # failure the sampling loop would have produced (the
            # message is built from inputs and outputs only, never
            # engine internals).  If the replay unexpectedly passes,
            # the model was spurious — distrust the verdict and run
            # the full sweep below.
            trial(prove_report.counterexample)
        elif prove_verdict == PROVED:
            executed = min(cfg.trials, CONFIRM_TRIALS)

    with obs.span("verify", engine=resolved.name):
        stream = ScenarioStream(spec, cfg.seed)
        if resolved.name == "vectorized":
            batch_trials(stream, executed)
        else:
            for scenario in stream.window(offset, executed):
                trial(scenario)
    return VerificationReport(
        trials=cfg.trials,
        operator_name=operator_desc.name,
        instruction_name=instruction_desc.name,
        seed=cfg.seed,
        offset=offset,
        engine=resolved.name,
        prove_verdict=prove_verdict,
        executed_trials=None if executed == cfg.trials else executed,
    )
