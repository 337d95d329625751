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
  interpreter instead.  This is the default engine.

Both engines' executors answer one contract: ``run(inputs, memory)``
runs one trial and ``run_batch(inputs, memory, n)`` runs a batch (see
:class:`~repro.semantics.interpreter.BatchResult`).  A single trial
always runs on the interpreter; only a batch reaches the kernel.

The vectorized engine exists purely for speed, so its correctness is
enforced structurally rather than trusted: a **differential gate**
re-runs a seeded sample of the lanes its kernel ran on its own
interpreter, the one that also runs every batch the numpy lanes
cannot (a batch that ran there is never re-run).  Tests run with the
gate ``always`` on; the batch runner samples; benchmarks turn it
``off`` to measure raw engine speed.  A lane's gate index is its
position in its window — a batch of :class:`ScenarioBatch` windows
(the batch runner's 64-trial shards) numbers each window's lanes from
0, and the batches of one executor number their lanes on from the
previous batch's — and the sampled gate checks index 0 plus roughly
one index in :data:`GATE_PERIOD`, so every window checks its own first
lane.  Any disagreement — outputs, final memory, registers, step
count, or exception behaviour — raises :class:`EngineMismatchError`
*before* any verification verdict can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from .. import obs
from ..isdl import ast
from .interpreter import BatchResult, ExecutionResult, Interpreter

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
    #: ``always`` | ``sampled`` | ``off`` — how often lanes the
    #: vectorized kernel ran are cross-checked against the interpreter.
    #: Irrelevant for ``interp``.
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
        """An object with ``run(inputs, memory) -> ExecutionResult`` and
        ``run_batch(inputs, memory, n) -> BatchResult``.

        Reuse one executor for a whole trial stream: the vectorized
        engine amortizes its (cached) lowering, and its gate numbers
        the lanes of an executor's batches as one stream of trials.
        """
        if self.name == "interp":
            inner = Interpreter(description, max_steps=max_steps)
        else:
            # The vectorized engine (and numpy with it) loads with the
            # first executor that runs on it.
            from .vectorized import VectorizedDescription

            inner = VectorizedDescription(description, max_steps, self.gate)
        if obs.enabled():
            return _InstrumentedExecutor(inner, self.name)
        return inner
