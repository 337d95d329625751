"""Execution-engine selection for everything that runs ISDL.

Two engines execute descriptions:

* ``interp`` — the big-step interpreter
  (:mod:`repro.semantics.interpreter`), the *reference* semantics,
  which resolves each description once into one closure per node;
* ``vectorized`` — generated batch kernels
  (:mod:`repro.semantics.vectorized`) that run N machine states at
  once over numpy arrays, with ``repeat``/``exit_when`` handled by
  active-lane masks.  A batch the numpy lanes cannot run (a value
  past +/-2**61, a write past the memory image, inputs or memory the
  lanes cannot hold, or no numpy on the host) runs lane by lane on the
  interpreter instead.  A scalar run is an N=1 batch.  This is the
  default engine.

The vectorized engine exists purely for speed, so its correctness is
enforced structurally rather than trusted: a **differential gate**
re-runs a seeded sample of its lanes under the interpreter.  Tests run
with the gate ``always`` on; the batch runner samples; benchmarks turn
it ``off`` to measure raw engine speed.  A lane's gate index is its
position in its window — a batch of :class:`ScenarioBatch` windows
(the batch runner's 64-trial shards) numbers each window's lanes from
0 — and the sampled gate checks index 0 plus roughly one index in
:data:`GATE_PERIOD`, so every window checks its own first lane.  Any
disagreement — outputs, final memory, registers, step count, or
exception behaviour — raises :class:`EngineMismatchError` *before* any
verification verdict can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..isdl import ast
from ..isdl.errors import SemanticError
from .interpreter import (
    AssertionFailed,
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
)
from .randomgen import ScenarioBatch, derive_seed

if TYPE_CHECKING:
    from .vectorized import BatchResult, VectorizedDescription

#: Engine names accepted by every ``--engine`` flag, in display order.
ENGINE_NAMES: Tuple[str, ...] = ("interp", "vectorized")

#: The engine used when nothing is selected.  The interpreter remains
#: the reference semantics; the vectorized engine is the verification
#: substrate (see DESIGN.md §2).
DEFAULT_ENGINE = "vectorized"

#: Gate modes, from most to least paranoid.
GATE_MODES: Tuple[str, ...] = ("always", "sampled", "off")

#: The sampled gate checks a lane when the draw seeded here from its
#: description name and gate index lands on 0 modulo the period.
GATE_SEED = 1982
GATE_PERIOD = 16


class UnknownEngineError(ValueError):
    """An ``--engine`` value that names no engine."""

    def __init__(self, name: object):
        super().__init__(
            "unknown engine %r; choose from: %s" % (name, ", ".join(ENGINE_NAMES))
        )


class EngineMismatchError(Exception):
    """The vectorized engine disagreed with the interpreter.

    This is a *bug in the vectorizer*, never in the description under
    test — it aborts the run instead of producing a verdict.
    """


def _observe(executor, inputs, memory):
    """Run an executor and normalize the observable outcome.

    Semantic exceptions are part of the observable behaviour (a
    description that exceeds its step budget must do so under both
    engines, with the same message), so they are captured and compared
    rather than propagated.
    """
    try:
        return ("result", executor.run(inputs, memory))
    except (StepLimitExceeded, AssertionFailed, SemanticError, ValueError) as error:
        return ("raise", type(error).__name__, str(error), error)


@lru_cache(maxsize=1 << 14)
def _sampled_positions(name: str, first: int, count: int) -> Tuple[int, ...]:
    """Positions ``p < count`` whose gate index ``first + p`` is sampled.

    Index 0 is always sampled; any other index when its seeded draw
    lands on the period.  Memoized, so the SHA-256 draws of a window
    shape are paid once, not once per lane of every batch.
    """
    return tuple(
        position
        for position in range(count)
        if first + position == 0
        or derive_seed(GATE_SEED, "gate", name, first + position) % GATE_PERIOD
        == 0
    )


class _GatedExecutor:
    """The vectorized engine wrapped with interpreter cross-checks.

    A lane's gate index is its position in its window, counted from
    the executor's next trial: a :class:`ScenarioBatch` holding several
    windows (the batch runner's 64-trial shards) numbers each of them
    from there, any other batch is one window, and scalar runs count on
    one at a time.  A window of a stacked batch therefore gets the
    indices a fresh executor running it alone would give it, and every
    window checks its own first lane.  A trial is checked when the
    gate is ``always``, or — under ``sampled`` — when its index is 0 or
    its seeded draw lands on the sampling period.  The draw derives
    from the description name and the index, so which trials are
    checked is deterministic across processes, independent of sharding
    order, and identical whether trials arrive one at a time or as a
    batch.
    """

    def __init__(
        self, primary: "VectorizedDescription", max_steps: int, gate: str
    ):
        description = primary.description
        self._primary = primary
        self._reference = Interpreter(description, max_steps=max_steps)
        self._name = description.name
        self._gate = gate
        self._trial = 0

    @property
    def description(self) -> ast.Description:
        return self._primary.description

    def _checked(self, first: int, count: int) -> Sequence[int]:
        """Positions of a window of ``count`` trials from ``first`` to check."""
        if self._gate == "always":
            return range(count)
        return _sampled_positions(self._name, first, count)

    def _compare(self, got, inputs, memory, index: int) -> None:
        """Cross-check one observation against the interpreter."""
        obs.inc("repro_engine_gate_checks_total")
        want = _observe(self._reference, inputs, memory)
        if got[:3] != want[:3]:
            raise EngineMismatchError(
                "vectorized engine disagrees with the interpreter on %r "
                "(trial %d, inputs %r): vectorized %r vs interpreted %r"
                % (self._name, index, dict(inputs), got[:3], want[:3])
            )

    def run(
        self,
        inputs: Mapping[str, int],
        memory: Optional[Mapping[int, int]] = None,
    ) -> ExecutionResult:
        index = self._trial
        self._trial += 1
        if not self._checked(index, 1):
            return self._primary.run(inputs, memory)
        got = _observe(self._primary, inputs, memory)
        self._compare(got, inputs, memory, index)
        if got[0] == "raise":
            raise got[3]
        return got[1]

    def run_batch(
        self,
        inputs: Mapping[str, Any],
        memory=None,
        n: Optional[int] = None,
    ) -> BatchResult:
        """Run a whole batch, cross-checking the sampled lanes.

        Each window of a :class:`ScenarioBatch` ``memory`` (any other
        batch is one window) numbers its lanes from the executor's next
        trial.  The gated lanes of every window are collected first and
        read in one columnar step — their outcomes via
        :meth:`BatchResult.lane_outcomes`, which has the shape
        ``_observe`` produces, their inputs and initial memories beside
        them — then re-executed by the interpreter and compared lane by
        lane, window by window.  A batch the kernel did not run
        (``backend == "interp"``) already ran lane by lane on the
        interpreter, so none of its lanes is re-run.
        """
        from .vectorized import lanes_inputs  # loaded with the primary

        base = self._trial
        result = self._primary.run_batch(inputs, memory, n=n)
        self._trial = base + result.n
        if result.backend == "interp":
            return result
        windows = (
            memory.windows if isinstance(memory, ScenarioBatch) else ()
        ) or (result.n,)
        lanes, indices, start = [], [], 0
        for count in windows:
            for position in self._checked(base, count):
                lanes.append(start + position)
                indices.append(base + position)
            start += count
        if isinstance(memory, ScenarioBatch):
            memories = memory.lanes_memory(lanes)
        else:
            memories = [memory] * len(lanes)
        for got, lane_inputs, lane_memory, index in zip(
            result.lane_outcomes(lanes), lanes_inputs(inputs, lanes), memories, indices
        ):
            self._compare(got, lane_inputs, lane_memory, index)
        return result


class _InstrumentedExecutor:
    """An executor counting runs, steps, batches, and lanes.

    Only ever constructed while metrics collection is on (see
    :meth:`ExecutionEngine.executor`), so disabled runs keep the bare
    executor object and pay nothing — not even an attribute hop.
    """

    __slots__ = ("_inner", "_engine")

    def __init__(self, inner, engine: str):
        self._inner = inner
        self._engine = engine

    @property
    def description(self) -> ast.Description:
        return self._inner.description

    def run(
        self,
        inputs: Mapping[str, int],
        memory: Optional[Mapping[int, int]] = None,
    ) -> ExecutionResult:
        obs.inc("repro_engine_runs_total", engine=self._engine)
        result = self._inner.run(inputs, memory)
        obs.inc(
            "repro_engine_steps_total", result.steps, engine=self._engine
        )
        return result

    def run_batch(
        self,
        inputs: Mapping[str, Any],
        memory=None,
        n: Optional[int] = None,
    ) -> BatchResult:
        obs.inc("repro_engine_batch_runs_total", engine=self._engine)
        result = self._inner.run_batch(inputs, memory, n=n)
        obs.inc(
            "repro_engine_lanes_total", result.n, engine=self._engine
        )
        return result


@dataclass(frozen=True)
class ExecutionEngine:
    """A selected engine plus its differential-gate policy.

    Frozen and hashable so it can ride inside shard specs and be
    compared for equality in tests.  ``resolve`` accepts either an
    engine name or an existing instance, which lets every API take
    ``engine="interp"`` and ``engine=ExecutionEngine(...)`` alike.
    """

    name: str = DEFAULT_ENGINE
    #: ``always`` | ``sampled`` | ``off`` — how often vectorized runs
    #: are cross-checked against the interpreter.  Irrelevant for
    #: ``interp``.
    gate: str = "always"

    def __post_init__(self) -> None:
        if self.name not in ENGINE_NAMES:
            raise UnknownEngineError(self.name)
        if self.gate not in GATE_MODES:
            raise ValueError(
                "unknown gate mode %r; choose from: %s"
                % (self.gate, ", ".join(GATE_MODES))
            )

    @classmethod
    def resolve(
        cls,
        engine: Union[None, str, "ExecutionEngine"],
        gate: Optional[str] = None,
    ) -> "ExecutionEngine":
        """Normalize a name / instance / None into an ExecutionEngine."""
        if engine is None:
            engine = DEFAULT_ENGINE
        if isinstance(engine, cls):
            if gate is not None and gate != engine.gate:
                return cls(name=engine.name, gate=gate)
            return engine
        if not isinstance(engine, str):
            raise UnknownEngineError(engine)
        return cls(name=engine, gate=gate if gate is not None else "always")

    def executor(self, description: ast.Description, max_steps: int = 200_000):
        """An object with ``run(inputs, memory) -> ExecutionResult``.

        Reuse one executor for a whole trial stream: the vectorized
        engine amortizes its (cached) lowering, and the gate numbers
        trials per executor.  The ``vectorized`` executor additionally
        exposes ``run_batch(inputs, memory, n) -> BatchResult`` for the
        wide verification path.
        """
        if self.name == "interp":
            inner = Interpreter(description, max_steps=max_steps)
        else:
            # The vectorized engine (and numpy with it) loads with the
            # first executor that runs on it.
            from .vectorized import VectorizedDescription

            inner = VectorizedDescription(description, max_steps=max_steps)
            if self.gate != "off":
                inner = _GatedExecutor(inner, max_steps=max_steps, gate=self.gate)
        if obs.enabled():
            return _InstrumentedExecutor(inner, self.name)
        return inner
