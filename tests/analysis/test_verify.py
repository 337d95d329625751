"""Differential-verification tests: the verifier must catch real bugs."""

import dataclasses

import pytest

from repro.analyses import scasb_rigel
from repro.analysis import RunConfig, VerificationFailure, verify_binding
from repro.isdl import ast, parse_stmts
from repro.isdl.visitor import replace_at, walk


@pytest.fixture(scope="module")
def binding():
    outcome = scasb_rigel.run(RunConfig(verify=False))
    assert outcome.succeeded
    return outcome.binding


def test_correct_binding_verifies(binding):
    report = verify_binding(
        binding,
        scasb_rigel.SCENARIO,
        config=RunConfig(trials=60),
    )
    assert report.trials == 60


def test_tampered_epilogue_caught(binding):
    """An off-by-one in the not-found epilogue is caught immediately."""
    instruction = binding.augmented_instruction
    target = None
    for path, node in walk(instruction):
        if isinstance(node, ast.Output) and node.exprs == (ast.Const(0),):
            target = path
            break
    assert target is not None
    broken = replace_at(instruction, target, ast.Output((ast.Const(1),)))
    tampered = dataclasses.replace(binding, augmented_instruction=broken)
    with pytest.raises(VerificationFailure):
        verify_binding(
            tampered,
            scasb_rigel.SCENARIO,
            config=RunConfig(trials=200),
        )


def test_tampered_memory_effect_caught():
    """A memory-effect difference (not just outputs) is caught."""
    from repro.analyses import movsb_pascal

    outcome = movsb_pascal.run(RunConfig(verify=False))
    binding = outcome.binding
    instruction = binding.augmented_instruction
    # Make the destination pointer stride by 2: every other byte lands
    # in the wrong cell, so only the final memories differ.
    target = None
    for path, node in walk(instruction):
        if (
            isinstance(node, ast.Assign)
            and node.target == ast.Var("di")
            and node.expr == ast.BinOp("+", ast.Var("di"), ast.Const(1))
        ):
            target = path
            break
    assert target is not None
    broken = replace_at(
        instruction,
        target,
        ast.Assign(ast.Var("di"), ast.BinOp("+", ast.Var("di"), ast.Const(2))),
    )
    tampered = dataclasses.replace(binding, augmented_instruction=broken)
    with pytest.raises(VerificationFailure):
        verify_binding(
            tampered,
            movsb_pascal.SCENARIO,
            config=RunConfig(trials=100),
        )


def test_wrong_comparison_caught(binding):
    """Flip the comparison: search for 'not equal' instead."""
    instruction = binding.augmented_instruction
    target = None
    for path, node in walk(instruction):
        if isinstance(node, ast.BinOp) and node.op == "=" and isinstance(
            node.left, ast.BinOp
        ):
            target = path
            break
    assert target is not None
    broken = replace_at(
        instruction,
        target,
        ast.UnOp("not", ast.BinOp("=", ast.Const(0), ast.Const(0))),
    )
    tampered = dataclasses.replace(binding, augmented_instruction=broken)
    with pytest.raises(VerificationFailure):
        verify_binding(
            tampered,
            scasb_rigel.SCENARIO,
            config=RunConfig(trials=60),
        )


def test_range_constraints_clip_scenarios(binding):
    # Values outside the operand ranges are clipped, not rejected: the
    # code generator guarantees ranges, so verification assumes them.
    report = verify_binding(
        binding,
        scasb_rigel.SCENARIO,
        config=RunConfig(trials=10, seed=3),
    )
    assert report.trials == 10
