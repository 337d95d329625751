"""Executable semantics for ISDL descriptions.

Exotic instructions cannot be symbolically executed (they loop — paper
§2), but they can be run concretely.  This package provides the value
model, machine state, a big-step interpreter, and randomized scenario
generation used by the differential-testing verifier in
:mod:`repro.analysis.verify`.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".engine": (
        "DEFAULT_ENGINE",
        "ENGINE_NAMES",
        "EngineMismatchError",
        "ExecutionEngine",
        "UnknownEngineError",
    ),
    ".interpreter": (
        "AssertionFailed",
        "BatchResult",
        "ExecutionResult",
        "Interpreter",
        "StepLimitExceeded",
        "run_description",
    ),
    ".vectorized": (
        "VectorizedDescription",
        "clear_vector_cache",
        "compile_vectorized",
        "vector_cache_stats",
    ),
    ".randomgen": (
        "OperandSpec",
        "Scenario",
        "ScenarioBatch",
        "ScenarioSpec",
        "ScenarioStream",
        "derive_seed",
        "generate_scenario_at",
        "generate_scenarios",
    ),
    ".state": ("Memory",),
    ".values": (
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
    ),
})
