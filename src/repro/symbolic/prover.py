"""The binding equivalence prover: proved / refuted / unknown.

:func:`prove_binding` symbolically executes a binding's two final
descriptions — operator and augmented instruction — over one shared
:class:`~repro.symbolic.terms.TermBuilder`, with every operand a free
variable bounded by the scenario spec's drawing range clipped into the
binding's operand range constraints (exactly the domain differential
trials actually sample).  Because both sides share one intern table and
the same input variables, *semantic* equality modulo the rewrite system
collapses to *pointer* equality of the result terms:

``proved``
    every output term and the final memory term are identical objects.
    No sampled trial over the spec's domain can ever disagree, so the
    verifier's confirmation window can shrink (see
    :func:`repro.analysis.verify.verify_binding`'s fast path).
``refuted``
    the terms differ *and* a concrete scenario was found on which the
    two descriptions disagree.  The scenario is extracted by a directed
    search (stream prefix plus operand boundary probes) and validated
    by replaying it as an ordinary differential trial — so the failure
    a caller reports is byte-identical to what sampling would have
    found, on every execution engine.
``unknown``
    symbolic execution hit a budget or an unsupported construct, or
    the terms differ but no disagreeing scenario was found (the term
    gap was a normalization incompleteness, not a semantic bug).
    Callers fall back to differential sampling unchanged.

Reports are cached per ``(code epoch, binding digest, spec, seed,
budgets)`` — the same content key discipline as the provenance store —
so pooled batch shards prove each binding once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..analysis.binding import Binding, binding_digest
from ..lint.intervals import Interval
from ..provenance import code_epoch
from ..semantics.randomgen import (
    Scenario,
    ScenarioSpec,
    ScenarioStream,
    _with_length,
)
from .executor import SymbolicExecutor
from .terms import SymbolicError, Term, TermBuilder

__all__ = [
    "PROVED",
    "REFUTED",
    "UNKNOWN",
    "VERDICTS",
    "ProveReport",
    "clear_prove_cache",
    "prove_binding",
    "replay_counterexample",
]

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"
#: all prover verdicts, in decreasing order of strength.
VERDICTS = (PROVED, REFUTED, UNKNOWN)

#: default term-node budget for one proof attempt.
DEFAULT_MAX_NODES = 200_000
#: default concrete-unroll budget per loop.
DEFAULT_UNROLL_BUDGET = 64
#: default symbolic statement budget per description.
DEFAULT_MAX_STMTS = 20_000
#: scenario-stream prefix scanned during counterexample search.
SEARCH_TRIALS = 48


@dataclass(frozen=True)
class ProveReport:
    """Outcome of one symbolic equivalence proof attempt."""

    verdict: str
    operator_name: str
    instruction_name: str
    #: why the verdict is not ``proved`` (budget, unsupported construct,
    #: or which observable diverged).
    reason: str = ""
    #: term nodes interned by the attempt (both sides share the table).
    term_nodes: int = 0
    #: deepest concrete loop unroll across both sides.
    unroll_depth: int = 0
    #: the disagreeing machine state (``refuted`` only).
    counterexample: Optional[Scenario] = None
    #: stream index of the counterexample, or ``None`` when it came
    #: from a boundary probe rather than the plain trial stream.
    counterexample_index: Optional[int] = None
    #: the differential trial's failure message (``refuted`` only) —
    #: engine-independent by construction.
    message: str = ""

    def __str__(self) -> str:
        base = (
            f"{self.verdict}: {self.operator_name} vs "
            f"{self.instruction_name}"
        )
        if self.verdict == PROVED:
            return base + f" ({self.term_nodes} term nodes)"
        if self.verdict == REFUTED:
            return base + f" — {self.message}"
        return base + (f" — {self.reason}" if self.reason else "")


# ---------------------------------------------------------------------------
# input domain

def _spec_bounds(spec: ScenarioSpec, name: str) -> Tuple[int, int]:
    """The inclusive drawing range of one operand, from the generator's
    own layout rules (see :mod:`repro.semantics.randomgen`)."""
    operand = spec.operands[name]
    role = operand.role
    if role == "address":
        naddr = sum(
            1 for other in spec.operands.values() if other.role == "address"
        )
        lo = 14 if spec.allow_overlap else 16
        hi = 16 + (naddr - 1) * spec.arena_stride + (
            2 if spec.allow_overlap else 0
        )
        return lo, hi
    if role == "length":
        return 0, spec.max_length
    if role == "char":
        return 0, 255
    if role == "range":
        return operand.lo, operand.hi
    if role == "fixed":
        return operand.lo, operand.lo
    raise SymbolicError(f"unknown operand role {role!r}")


def _input_terms(
    builder: TermBuilder, binding: Binding, spec: ScenarioSpec
) -> Dict[str, Term]:
    """One term per operand: the spec's drawing range clipped into the
    binding's operand range constraint (mirroring
    ``verify._clip_to_constraints``, which clamps each drawn value)."""
    ranges = {
        constraint.operand: (constraint.lo, constraint.hi)
        for constraint in binding.range_constraints()
        if constraint.is_operand
    }
    env: Dict[str, Term] = {}
    for name in sorted(spec.operands):
        lo, hi = _spec_bounds(spec, name)
        if name in ranges:
            clip_lo, clip_hi = ranges[name]
            lo = max(clip_lo, min(clip_hi, lo))
            hi = max(clip_lo, min(clip_hi, hi))
        if lo == hi:
            env[name] = builder.const(lo)
        else:
            env[name] = builder.var(name, Interval(lo, hi))
    return env


# ---------------------------------------------------------------------------
# counterexample search

def _boundary_scenarios(
    spec: ScenarioSpec, base: Scenario
) -> List[Scenario]:
    """Operand-boundary probes derived from one drawn scenario."""
    probes: List[Scenario] = []
    for length in sorted({0, 1, spec.max_length}):
        probes.append(_with_length(spec, base, length))
    for name in sorted(spec.operands):
        operand = spec.operands[name]
        if operand.role not in ("range", "char"):
            continue
        lo, hi = _spec_bounds(spec, name)
        for value in (lo, hi):
            inputs = dict(base.inputs)
            inputs[name] = value
            probes.append(Scenario(inputs=inputs, memory=base.memory))
    return probes


def _search_counterexample(
    binding: Binding,
    spec: ScenarioSpec,
    seed: int,
    search_trials: int,
):
    """Find a concrete disagreeing scenario, validated by replay.

    Scans the same scenario stream sampling would use (so a refutation
    surfaces the state trial ``i`` would have hit), then probes operand
    boundaries.  Returns ``(index_or_None, scenario, failure)`` or
    ``None``.
    """
    from ..analysis.verify import VerificationFailure, differential_trial

    stream = ScenarioStream(spec, seed)
    candidates: List[Tuple[Optional[int], Scenario]] = [
        (index, scenario)
        for index, scenario in enumerate(stream.window(0, search_trials))
    ]
    if candidates:
        base = candidates[min(2, len(candidates) - 1)][1]
        candidates.extend(
            (None, probe) for probe in _boundary_scenarios(spec, base)
        )
    for index, scenario in candidates:
        try:
            differential_trial(binding, scenario)
        except VerificationFailure as failure:
            return index, scenario, failure
    return None


def replay_counterexample(binding: Binding, scenario: Scenario) -> None:
    """Replay a refutation as one ordinary differential trial.

    Raises the identical :class:`~repro.analysis.verify.VerificationFailure`
    (type, message, attached scenario) verification reports for that
    state on either engine: a single trial always runs on the
    interpreter.
    """
    from ..analysis.verify import differential_trial

    differential_trial(binding, scenario)


# ---------------------------------------------------------------------------
# the prover

_PROVE_CACHE: Dict[tuple, ProveReport] = {}


def clear_prove_cache() -> None:
    """Forget all cached proof reports (tests and benchmarks)."""
    _PROVE_CACHE.clear()


def _spec_key(spec: ScenarioSpec) -> tuple:
    return (
        tuple(
            (name, operand.role, operand.lo, operand.hi)
            for name, operand in sorted(spec.operands.items())
        ),
        spec.max_length,
        spec.arena_stride,
        spec.allow_overlap,
    )


def _mismatch_reason(op_result, in_result) -> str:
    if len(op_result.outputs) != len(in_result.outputs):
        return (
            "symbolic output counts differ: operator emits "
            f"{len(op_result.outputs)}, instruction "
            f"{len(in_result.outputs)}"
        )
    differing = [
        position
        for position, (a, b) in enumerate(
            zip(op_result.outputs, in_result.outputs)
        )
        if a is not b
    ]
    if differing:
        return f"symbolic output terms differ at positions {differing}"
    return "symbolic final memory terms differ"


def prove_binding(
    binding: Binding,
    spec: ScenarioSpec,
    *,
    seed: int = 1982,
    max_nodes: int = DEFAULT_MAX_NODES,
    unroll_budget: int = DEFAULT_UNROLL_BUDGET,
    max_stmts: int = DEFAULT_MAX_STMTS,
    search_trials: int = SEARCH_TRIALS,
) -> ProveReport:
    """Attempt a symbolic equivalence proof for one binding.

    Never raises on prover limitations — budget exhaustion and
    unsupported constructs become an ``unknown`` report, so every
    caller can fall back to sampling without special-casing.
    """
    key = (
        code_epoch(),
        binding_digest(binding),
        _spec_key(spec),
        seed,
        max_nodes,
        unroll_budget,
        max_stmts,
        search_trials,
    )
    cached = _PROVE_CACHE.get(key)
    if cached is not None:
        return cached
    with obs.span("prove"):
        report = _prove_uncached(
            binding,
            spec,
            seed=seed,
            max_nodes=max_nodes,
            unroll_budget=unroll_budget,
            max_stmts=max_stmts,
            search_trials=search_trials,
        )
    _PROVE_CACHE[key] = report
    return report


def _prove_uncached(
    binding: Binding,
    spec: ScenarioSpec,
    *,
    seed: int,
    max_nodes: int,
    unroll_budget: int,
    max_stmts: int,
    search_trials: int,
) -> ProveReport:
    operator_desc = binding.final_operator
    instruction_desc = binding.augmented_instruction
    builder = TermBuilder(max_nodes=max_nodes)
    collect = obs.enabled()
    rename = binding.operand_map.get

    def finish(report: ProveReport, unrolls: int) -> ProveReport:
        if collect:
            obs.inc("repro_prove_verdicts_total", verdict=report.verdict)
            obs.observe("repro_prove_term_nodes", report.term_nodes)
            obs.observe("repro_prove_unroll_iterations", unrolls)
        return report

    operator_exec = SymbolicExecutor(
        operator_desc,
        builder,
        max_stmts=max_stmts,
        unroll_budget=unroll_budget,
    )
    instruction_exec = SymbolicExecutor(
        instruction_desc,
        builder,
        max_stmts=max_stmts,
        unroll_budget=unroll_budget,
    )
    try:
        env = _input_terms(builder, binding, spec)
        op_result = operator_exec.run(env)
        in_result = instruction_exec.run(
            {rename(name, name): term for name, term in env.items()}
        )
    except SymbolicError as exc:
        return finish(
            ProveReport(
                verdict=UNKNOWN,
                operator_name=operator_desc.name,
                instruction_name=instruction_desc.name,
                reason=str(exc),
                term_nodes=builder.node_count,
                unroll_depth=max(
                    operator_exec.max_unroll_depth,
                    instruction_exec.max_unroll_depth,
                ),
            ),
            operator_exec.unroll_iterations
            + instruction_exec.unroll_iterations,
        )
    unroll_depth = max(
        operator_exec.max_unroll_depth, instruction_exec.max_unroll_depth
    )
    unrolls = (
        operator_exec.unroll_iterations + instruction_exec.unroll_iterations
    )
    agree = (
        len(op_result.outputs) == len(in_result.outputs)
        and all(
            a is b for a, b in zip(op_result.outputs, in_result.outputs)
        )
        and op_result.memory is in_result.memory
    )
    if agree:
        return finish(
            ProveReport(
                verdict=PROVED,
                operator_name=operator_desc.name,
                instruction_name=instruction_desc.name,
                term_nodes=builder.node_count,
                unroll_depth=unroll_depth,
            ),
            unrolls,
        )
    reason = _mismatch_reason(op_result, in_result)
    found = _search_counterexample(binding, spec, seed, search_trials)
    if found is None:
        return finish(
            ProveReport(
                verdict=UNKNOWN,
                operator_name=operator_desc.name,
                instruction_name=instruction_desc.name,
                reason=reason + "; no disagreeing scenario found",
                term_nodes=builder.node_count,
                unroll_depth=unroll_depth,
            ),
            unrolls,
        )
    index, scenario, failure = found
    return finish(
        ProveReport(
            verdict=REFUTED,
            operator_name=operator_desc.name,
            instruction_name=instruction_desc.name,
            reason=reason,
            term_nodes=builder.node_count,
            unroll_depth=unroll_depth,
            counterexample=scenario,
            counterexample_index=index,
            message=str(failure),
        ),
        unrolls,
    )
