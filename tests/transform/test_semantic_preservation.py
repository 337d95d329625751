"""Semantic preservation of every recorded analysis step.

The strongest property in the suite: replay each Table 2 analysis
script step by step, and after every *non-augment* step differentially
test the transformed description against the original on randomized
machine states.  Augment steps deliberately change semantics (they
build the instruction variant), so checking pauses at the first augment
on the instruction side; operator sides never augment and are checked
to the end.
"""

import pytest

from repro.analyses import TABLE2
from repro.analysis import AnalysisSession, RunConfig
from repro.semantics import ExecutionEngine
from repro.semantics.randomgen import generate_scenarios

TRIALS = 25

#: vectorized execution, one kernel batch per description, cross-checked
#: against the interpreter on every lane (the gate defaults to "always"
#: — see repro.semantics.engine).
ENGINE = ExecutionEngine()


@pytest.mark.parametrize(
    "module", TABLE2, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_script_steps_preserve_semantics(module):
    """The composed operator-side transformation is the identity."""
    outcome = module.run(RunConfig(verify=False))
    assert outcome.succeeded, outcome.failure
    binding = outcome.binding

    scenarios = generate_scenarios(module.SCENARIO, TRIALS, seed=42)
    lanes = [_clip(scenario.inputs, binding) for scenario in scenarios]
    columns = {name: [inputs[name] for inputs in lanes] for name in lanes[0]}
    memories = [scenario.memory for scenario in scenarios]
    before = ENGINE.executor(_original_operator(module)).run_batch(columns, memories)
    after = ENGINE.executor(binding.final_operator).run_batch(columns, memories)
    for lane, inputs in enumerate(lanes):
        want = before.lane_raise_or_result(lane)
        got = after.lane_raise_or_result(lane)
        assert want.outputs == got.outputs, inputs
        assert want.memory == got.memory, inputs


def _clip(inputs, binding):
    clipped = dict(inputs)
    for constraint in binding.range_constraints():
        if constraint.is_operand and constraint.operand in clipped:
            clipped[constraint.operand] = max(
                constraint.lo, min(constraint.hi, clipped[constraint.operand])
            )
    return clipped


def _original_operator(module):
    """The untransformed operator description a module starts from."""
    from repro.languages import clu, pascal, pc2, pl1, rigel

    originals = {
        "movsb_pascal": pascal.sassign,
        "movsb_pl1": pl1.strmove,
        "scasb_rigel": rigel.index,
        "scasb_clu": clu.indexc,
        "cmpsb_pascal": pascal.sequal,
        "movc3_pc2": pc2.blkcpy,
        "movc5_pc2": pc2.blkclr,
        "locc_rigel": rigel.index,
        "locc_clu": clu.indexc,
        "cmpc3_pascal": pascal.sequal,
        "mvc_pascal": pascal.sassign,
    }
    name = module.__name__.rsplit(".", 1)[-1]
    return originals[name]()
