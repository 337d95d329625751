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
from typing import Dict, Optional, Sequence, Tuple

from .. import obs
from ..isdl import ast
from ..lint import LintGateError, lint_binding
from ..semantics.engine import (
    DEFAULT_ENGINE,
    EngineMismatchError,
    ExecutionEngine,
)
from ..semantics.interpreter import lanes_disagree
from ..semantics.randomgen import (
    Scenario,
    ScenarioSpec,
    ScenarioStream,
    load_numpy,
)
from .config import RunConfig

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


def _clip_to_constraints(inputs: Dict[str, int], binding) -> Dict[str, int]:
    """Clamp scenario inputs into the binding's operand ranges."""
    clipped = dict(inputs)
    for operand, lo, hi in _operand_ranges(binding):
        if operand in clipped:
            clipped[operand] = max(lo, min(hi, clipped[operand]))
    return clipped


def differential_trial(binding, scenario: Scenario) -> None:
    """Run one concrete machine state through both final descriptions.

    Inputs are clipped to the binding's operand ranges, renamed through
    the operand map for the instruction side, and both descriptions
    must agree on outputs and final memory — otherwise the same
    :class:`VerificationFailure` :func:`verify_binding` reports for
    that state is raised.  The trial runs on the interpreter, as every
    single trial does, so a failure is the same whichever engine found
    it.  The message is built from inputs and outputs only.  Used by
    the symbolic prover to validate and replay counterexamples, and by
    :func:`verify_binding` to decide a window whose batch flagged a
    trial.
    """
    engine = ExecutionEngine("interp")
    if obs.enabled():
        obs.inc("repro_verify_trials_total", engine=engine.name)
    inputs = _clip_to_constraints(scenario.inputs, binding)
    mapped = {binding.operand_map.get(k, k): v for k, v in inputs.items()}
    result_op = engine.executor(binding.final_operator).run(inputs, scenario.memory)
    result_in = engine.executor(binding.augmented_instruction).run(
        mapped, scenario.memory
    )
    if result_op.outputs != result_in.outputs:
        obs.inc("repro_verify_failures_total", engine=engine.name)
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
        obs.inc("repro_verify_failures_total", engine=engine.name)
        raise VerificationFailure(
            f"final memories differ at {sorted(diff)[:8]} on inputs "
            f"{inputs}",
            scenario,
        )


def _clip_column(column, lo: int, hi: int):
    """Columnar :func:`_clip_to_constraints` for one batch input vector."""
    np = load_numpy()
    if np is not None and isinstance(column, np.ndarray):
        # minimum/maximum instead of clip: same result, no per-call
        # scalar-promotion bookkeeping on the hot path.
        return np.minimum(np.maximum(column, lo), hi)
    return [max(lo, min(hi, int(value))) for value in column]


def verify_binding(
    binding,
    spec: ScenarioSpec,
    config: Optional[RunConfig] = None,
    *,
    offset: int = 0,
    gate: Optional[str] = None,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
):
    """Run both final descriptions on randomized states.

    The trial count, root seed, and engine come from ``config`` (a
    :class:`RunConfig`; None is this entry point's historical default
    of 200 trials).  ``offset``, ``gate`` and ``windows`` are per-call
    verification mechanics, not part of the run plan.

    ``seed`` is the *root* seed of the whole verification; ``offset``
    selects a window of its scenario stream, so the batch runner can
    shard one verification across workers (scenario ``i`` is identical
    whether it runs in shard 0 of 1 or shard 3 of 4 — see
    :class:`repro.semantics.randomgen.ScenarioStream`).

    Every window runs as one wide batch per description on either
    engine.  ``engine`` selects what runs it (``vectorized`` by
    default, the batch kernel; ``interp``, the reference semantics,
    runs the batch lane by lane) and ``gate`` how often kernel lanes
    are cross-checked against the interpreter — ``always`` unless the
    caller says otherwise, so any miscompilation the gate samples
    surfaces as :class:`~repro.semantics.engine.EngineMismatchError`
    before a verdict is reported.  A failure never rests on a batch
    alone: a window's first flagged lane (one that raised or disagreed)
    is replayed as a :func:`differential_trial` on the interpreter, and
    the exception that replay raises is the window's outcome.  A replay
    that passes means the kernel was wrong on a lane the gate did not
    check, and is reported as an
    :class:`~repro.semantics.engine.EngineMismatchError`.

    Returns a :class:`VerificationReport`.  Raises
    :class:`VerificationFailure` on the first disagreement, and
    :class:`~repro.lint.LintGateError` — before any trial runs — when
    the static pre-flight finds the binding's constraints inconsistent
    with its own descriptions (see :func:`repro.lint.lint_binding`).

    ``windows`` verifies several ``(offset, count)`` windows of the
    stream in one call — the batch runner passes an entry's shards —
    and returns a list with one outcome per window: the report, or the
    exception, that a call with that ``offset`` and ``trials=count``
    gives.  ``trials`` and ``offset`` are then unused.  The binding is
    linted, proved and given executors once; a refuting proof's
    counterexample is replayed once, and its failure is every window's
    outcome.  All windows run as one batch per description, each
    window numbering its gate trials from 0.  Only a gate mismatch in
    that batch, which does not say whose lane it was, sends each window
    to a call of its own.
    """
    cfg = config if config is not None else _VERIFY_DEFAULTS
    gate_diagnostics = lint_binding(binding)
    if gate_diagnostics:
        raise LintGateError(tuple(gate_diagnostics))
    resolved = cfg.resolve_engine(gate)
    operator_desc = binding.final_operator
    instruction_desc = binding.augmented_instruction
    operator_exec = resolved.executor(operator_desc)
    instruction_exec = resolved.executor(instruction_desc)
    ranges = _operand_ranges(binding)
    plan = ((offset, cfg.trials),) if windows is None else tuple(windows)

    collect = obs.enabled()
    rename = binding.operand_map.get

    def captured(run, *args, **kwargs):
        """``run``'s result, or the exception it raised."""
        try:
            return run(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - the window's outcome
            return error

    def replay(scenario: Scenario):
        """None, or the exception one trial on the interpreter raises."""
        return captured(differential_trial, binding, scenario)

    prove_verdict: Optional[str] = None
    proved = False
    refutation = None
    if cfg.symbolic:
        from ..symbolic import PROVED, REFUTED, prove_binding

        prove_report = prove_binding(binding, spec, seed=cfg.seed)
        prove_verdict = prove_report.verdict
        if prove_verdict == REFUTED:
            # The prover extracted a concrete model; its replay raises
            # the exact failure the sampling loop would have produced
            # (the message is built from inputs and outputs only, never
            # engine internals).  If the replay unexpectedly passes,
            # the model was spurious — distrust the verdict and run
            # the full sweep below.
            refutation = replay(prove_report.counterexample)
        elif prove_verdict == PROVED:
            proved = True
    executed = tuple(
        (window_offset, min(count, CONFIRM_TRIALS) if proved else count)
        for window_offset, count in plan
    )

    def report(window_offset: int, count: int, ran: int) -> VerificationReport:
        return VerificationReport(
            trials=count,
            operator_name=operator_desc.name,
            instruction_name=instruction_desc.name,
            seed=cfg.seed,
            offset=window_offset,
            engine=resolved.name,
            prove_verdict=prove_verdict,
            executed_trials=None if ran == count else ran,
        )

    def flagged(stream: ScenarioStream, index: int) -> Exception:
        """The outcome of a window whose trial ``index`` its batch flagged."""
        failure = replay(stream.window(index, 1)[0])
        if failure is not None:
            return failure
        return EngineMismatchError(
            "%s engine flagged trial %d of %r vs %r but the "
            "interpreter replay passed"
            % (resolved.name, index, operator_desc.name, instruction_desc.name)
        )

    def wide(stream: ScenarioStream) -> list:
        """Every window as one wide batch per description.

        A window is clean when none of its lanes raised or disagreed;
        its trials count as verified.  Otherwise its trials before the
        first flagged lane count, and that lane's replay decides it.
        """
        batch = stream.draw_windows(executed)
        columns = dict(batch.inputs)
        for operand, lo, hi in ranges:
            if operand in columns:
                columns[operand] = _clip_column(columns[operand], lo, hi)
        mapped_columns = {rename(k, k): v for k, v in columns.items()}
        result_op = operator_exec.run_batch(columns, batch, n=batch.n)
        result_in = instruction_exec.run_batch(mapped_columns, batch, n=batch.n)
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
        outcomes, verified, start = [], 0, 0
        for (window_offset, count), (_, ran) in zip(plan, executed):
            problem = None
            if not clean:
                for lane in range(start, start + ran):
                    if (
                        result_op.errors[lane] is not None
                        or result_in.errors[lane] is not None
                        or disagree[lane]
                    ):
                        problem = lane - start
                        break
            if problem is None:
                verified += ran
                outcomes.append(report(window_offset, count, ran))
            else:
                verified += problem
                outcomes.append(flagged(stream, window_offset + problem))
            start += ran
        if collect and verified:
            obs.inc("repro_verify_trials_total", verified, engine=resolved.name)
        return outcomes

    if refutation is not None:
        outcomes = [refutation] * len(plan)
    else:
        with obs.span("verify", engine=resolved.name):
            try:
                outcomes = wide(ScenarioStream(spec, cfg.seed))
            except EngineMismatchError as mismatch:
                # None leaves a window to a call of its own.
                outcomes = [mismatch] if len(plan) == 1 else [None] * len(plan)
    if windows is None:
        (outcome,) = outcomes
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return [
        captured(
            verify_binding,
            binding,
            spec,
            cfg.replace(trials=count),
            offset=window_offset,
            gate=gate,
        )
        if outcome is None
        else outcome
        for (window_offset, count), outcome in zip(plan, outcomes)
    ]
