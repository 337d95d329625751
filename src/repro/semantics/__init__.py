"""Executable semantics for ISDL descriptions.

Exotic instructions cannot be symbolically executed (they loop — paper
§2), but they can be run concretely.  This package provides the value
model, machine state, a big-step interpreter, and randomized scenario
generation used by the differential-testing verifier in
:mod:`repro.analysis.verify`.
"""

from .engine import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    EngineMismatchError,
    ExecutionEngine,
    UnknownEngineError,
)
from .interpreter import (
    AssertionFailed,
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
    run_description,
)
from .randomgen import (
    OperandSpec,
    Scenario,
    ScenarioSpec,
    ScenarioStream,
    derive_seed,
    generate_scenario,
    generate_scenario_at,
    generate_scenarios,
)
from .state import Memory, RegisterFile
from .vectorized import (
    BatchResult,
    ScenarioBatch,
    VectorizedDescription,
    clear_vector_cache,
    compile_vectorized,
    run_vectorized,
    vector_cache_stats,
)
from .values import (
    BOOLEAN_OPS,
    BYTE_BITS,
    BYTE_MASK,
    apply_binop,
    apply_unop,
    as_flag,
    fits,
    truncate,
    truth,
    width_bits,
)

__all__ = [
    "AssertionFailed",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "EngineMismatchError",
    "ExecutionEngine",
    "ExecutionResult",
    "Interpreter",
    "StepLimitExceeded",
    "UnknownEngineError",
    "run_description",
    "BatchResult",
    "ScenarioBatch",
    "VectorizedDescription",
    "clear_vector_cache",
    "compile_vectorized",
    "run_vectorized",
    "vector_cache_stats",
    "OperandSpec",
    "Scenario",
    "ScenarioSpec",
    "ScenarioStream",
    "derive_seed",
    "generate_scenario",
    "generate_scenario_at",
    "generate_scenarios",
    "Memory",
    "RegisterFile",
    "BOOLEAN_OPS",
    "BYTE_BITS",
    "BYTE_MASK",
    "apply_binop",
    "apply_unop",
    "as_flag",
    "fits",
    "truncate",
    "truth",
    "width_bits",
]
