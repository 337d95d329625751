"""Transformation fuzzing: every applicable rewrite preserves semantics.

For each description in a corpus and each semantics-preserving
transformation in the library, the fuzzer attempts the transformation
at *every* node of the tree (plus name-parameter combinations for the
global induction rewrites).  A guard refusal is fine; a successful
application must leave the description behaviourally identical on
randomized machine states.

This is the mechanized version of the paper's soundness claim: "the
application of source-to-source transformations changes the procedural
descriptions, but not the results that are computed" (§3).
"""

import itertools

import pytest

from repro.isdl import ast, parse_description
from repro.isdl.visitor import walk
from repro.semantics import ExecutionEngine
from repro.semantics.randomgen import OperandSpec, ScenarioSpec, generate_scenarios
from repro.transform import Context, TransformError, all_transformations
from repro.transform.base import TransformResult

from tests.conftest import COPY_TEXT, INDEXED_COPY_TEXT, SEARCH_TEXT

#: categories whose transformations construct *variants* or touch the
#: operand interface; they are not semantics-preserving by design.
SKIP_CATEGORIES = {"augment", "constraint-assertion"}

#: interface-changing or fact-dependent transforms outside those
#: categories.
SKIP_NAMES = {
    "select_forward_copy",  # requires a declared language fact
    # Alpha-renames preserve semantics modulo the *renaming*, but the
    # fuzzer keys scenario inputs by operand name; covered by unit tests.
    "rename_variable",
    "rename_routine",
}

#: per-transformation keyword parameters used during fuzzing (fresh
#: names for transforms that introduce declarations).
FUZZ_PARAMS = {
    "materialize_exit_flag": {"flag": "zz_flag"},
    "inline_call": {"temp": "zz_tmp"},
    "hoist_call": {"temp": "zz_tmp"},
    "hoist_memread": {"temp": "zz_tmp"},
    "extract_access_routine": {"routine": "zz_read"},
    "allocate_temp": {"temp": "zz_tmp"},
    "rename_variable": {"new_name": "zz_renamed"},
    "rename_routine": {"new_name": "zz_routine"},
}

CORPUS = [
    (
        "search",
        SEARCH_TEXT,
        ScenarioSpec(
            operands={
                "di": OperandSpec("address"),
                "cx": OperandSpec("length"),
                "al": OperandSpec("char"),
            }
        ),
    ),
    (
        "copy",
        COPY_TEXT,
        ScenarioSpec(
            operands={
                "Src": OperandSpec("address"),
                "Dst": OperandSpec("address"),
                "Len": OperandSpec("length"),
            }
        ),
    ),
    (
        "indexed_copy",
        INDEXED_COPY_TEXT,
        ScenarioSpec(
            operands={
                "Src": OperandSpec("address"),
                "Dst": OperandSpec("address"),
                "Len": OperandSpec("length"),
            }
        ),
    ),
    (
        "rigel_index",
        None,  # loaded below
        ScenarioSpec(
            operands={
                "Src.Base": OperandSpec("address"),
                "Src.Length": OperandSpec("length"),
                "ch": OperandSpec("char"),
            }
        ),
    ),
    (
        "pascal_sequal",
        None,
        ScenarioSpec(
            operands={
                "A.Base": OperandSpec("address"),
                "B.Base": OperandSpec("address"),
                "Len": OperandSpec("length"),
            }
        ),
    ),
]


def _load(name, text):
    if text is not None:
        return parse_description(text)
    if name == "rigel_index":
        from repro.languages import rigel

        return rigel.index()
    if name == "pascal_sequal":
        from repro.languages import pascal

        return pascal.sequal()
    raise AssertionError(name)


#: vectorized execution with the always-on differential gate: every
#: fuzzed variant runs its scenarios as one kernel batch, cross-checked
#: lane by lane against the interpreter, so this suite doubles as an
#: engine-equivalence corpus.
ENGINE = ExecutionEngine()


def _behaviour(description, scenarios):
    batch = ENGINE.executor(description).run_batch(
        {name: [s.inputs[name] for s in scenarios] for name in scenarios[0].inputs},
        [scenario.memory for scenario in scenarios],
    )
    results = []
    for lane in range(batch.n):
        run = batch.lane_raise_or_result(lane)
        results.append((run.outputs, tuple(sorted(run.memory.items()))))
    return results


def _name_param_combos(transform_name, description):
    """Parameter combinations for the path-independent global rewrites."""
    registers = [decl.name for decl in description.registers()]
    if transform_name == "absorb_index_into_base":
        for var, base in itertools.permutations(registers, 2):
            yield {"var": var, "base": base, "saved": "zz_saved"}
    elif transform_name == "countup_to_countdown":
        for var, limit in itertools.permutations(registers, 2):
            yield {"var": var, "limit": limit}
    elif transform_name == "copy_operand_to_register":
        for operand in registers:
            yield {"operand": operand, "new": "zz_copy"}
    else:
        yield None  # path-driven


def fuzz_variants(description):
    """Every ``(transformation, path, result)`` the fuzzer applies.

    Each semantics-preserving transformation is tried at every node of
    ``description`` (or once per name-parameter combination for the
    path-independent global rewrites); guard refusals are skipped.
    """
    ctx = Context(description)
    paths = [path for path, _ in walk(description)]

    transformations = [
        t
        for t in all_transformations()
        if t.category not in SKIP_CATEGORIES and t.name not in SKIP_NAMES
    ]
    for transformation in transformations:
        base_params = FUZZ_PARAMS.get(transformation.name, {})
        for extra in _name_param_combos(transformation.name, description):
            params = dict(base_params)
            candidate_paths = paths
            if extra is not None:
                params.update(extra)
                candidate_paths = [()]
            for path in candidate_paths:
                try:
                    result = transformation.apply(ctx, path, **params)
                except TransformError:
                    continue
                yield transformation, path, result


@pytest.mark.parametrize(
    "name", [entry[0] for entry in CORPUS], ids=[e[0] for e in CORPUS]
)
def test_fuzz_all_transformations(name):
    text, spec = next(
        (entry[1], entry[2]) for entry in CORPUS if entry[0] == name
    )
    description = _load(name, text)
    scenarios = generate_scenarios(spec, 12, seed=1234)
    baseline = _behaviour(description, scenarios)
    applied = 0
    for transformation, path, result in fuzz_variants(description):
        assert isinstance(result, TransformResult)
        applied += 1
        after = _behaviour(result.description, scenarios)
        assert after == baseline, (
            f"{transformation.name} at {path} broke semantics "
            f"of {name}"
        )
    # The corpus must actually exercise the library.
    assert applied >= 10, f"only {applied} applications on {name}"
