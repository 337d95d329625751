"""Set-built effect summaries equal summaries folded with ``Effects.__or__``.

:class:`FoldingEffects` is the effect analysis that
:class:`~repro.dataflow.EffectAnalysis` replaced, kept as the oracle: it
builds a frozen :class:`Effects` for every statement and joins them with
``|``.  Both must agree on every routine summary and on every statement
and expression of the catalog's replayed descriptions, the transform
fuzz corpus and its variants, and random descriptions.
"""

from typing import Dict

from hypothesis import given, settings

from repro.dataflow.effects import MEM, OUT, EffectAnalysis, Effects
from repro.isdl import ast
from repro.isdl.visitor import walk

from tests.dataflow.test_fuzz_dataflow import descriptions
from tests.transform.test_catalog_digests import replayed_forms
from tests.transform.test_fuzz_preservation import CORPUS, _load, fuzz_variants


class FoldingEffects:
    def __init__(self, description: ast.Description):
        self._routines = {routine.name: routine for routine in description.routines()}
        self._summaries: Dict[str, Effects] = {}
        for name in self._routines:
            self._summaries[name] = Effects()
        changed = True
        while changed:
            changed = False
            for name, routine in self._routines.items():
                summary = self._routine_body_effects(routine)
                if summary != self._summaries[name]:
                    self._summaries[name] = summary
                    changed = True

    def routine_effects(self, name):
        return self._summaries[name]

    def expr_effects(self, expr):
        if isinstance(expr, ast.Const):
            return Effects()
        if isinstance(expr, ast.Var):
            return Effects(reads=frozenset({expr.name}))
        if isinstance(expr, ast.MemRead):
            return Effects(reads=frozenset({MEM})) | self.expr_effects(expr.addr)
        if isinstance(expr, ast.Call):
            combined = Effects()
            for arg in expr.args:
                combined = combined | self.expr_effects(arg)
            summary = self._summaries.get(expr.name)
            if summary is None:
                summary = Effects(frozenset({MEM}), frozenset({MEM}))
            return combined | summary
        if isinstance(expr, ast.BinOp):
            return self.expr_effects(expr.left) | self.expr_effects(expr.right)
        if isinstance(expr, ast.UnOp):
            return self.expr_effects(expr.operand)
        raise TypeError(f"no effects for {type(expr).__name__}")

    def stmt_effects(self, stmt):
        if isinstance(stmt, ast.Assign):
            effects = self.expr_effects(stmt.expr)
            if isinstance(stmt.target, ast.MemRead):
                addr = self.expr_effects(stmt.target.addr)
                return Effects(
                    effects.reads | addr.reads,
                    effects.writes | addr.writes | {MEM},
                )
            return Effects(effects.reads, effects.writes | {stmt.target.name})
        if isinstance(stmt, (ast.ExitWhen, ast.Assert)):
            return self.expr_effects(stmt.cond)
        if isinstance(stmt, ast.Output):
            combined = Effects(frozenset(), frozenset({OUT}))
            for expr in stmt.exprs:
                combined = combined | self.expr_effects(expr)
            return combined
        if isinstance(stmt, ast.Input):
            return Effects(frozenset(), frozenset(stmt.names))
        if isinstance(stmt, ast.If):
            combined = self.expr_effects(stmt.cond)
            for inner in stmt.then + stmt.els:
                combined = combined | self.stmt_effects(inner)
            return combined
        if isinstance(stmt, ast.Repeat):
            combined = Effects()
            for inner in stmt.body:
                combined = combined | self.stmt_effects(inner)
            return combined
        raise TypeError(f"no effects for {type(stmt).__name__}")

    def _routine_body_effects(self, routine):
        combined = Effects()
        for stmt in routine.body:
            combined = combined | self.stmt_effects(stmt)
        local = set(routine.params) | {routine.name}
        return Effects(
            frozenset(combined.reads - local),
            frozenset(combined.writes - local),
        )


STMT_TYPES = (ast.Assign, ast.If, ast.Repeat, ast.ExitWhen, ast.Input, ast.Output, ast.Assert)
EXPR_TYPES = (ast.Const, ast.Var, ast.MemRead, ast.Call, ast.BinOp, ast.UnOp)


def assert_same_effects(description, where=""):
    """Every summary, statement and expression of ``description`` gets
    the oracle's effects."""
    analysis = EffectAnalysis(description)
    oracle = FoldingEffects(description)
    for routine in description.routines():
        assert analysis.routine_effects(routine.name) == oracle.routine_effects(
            routine.name
        ), (where, routine.name)
    checked = 0
    for path, node in walk(description):
        if isinstance(node, STMT_TYPES):
            assert analysis.stmt_effects(node) == oracle.stmt_effects(node), (where, path)
            checked += 1
        elif isinstance(node, EXPR_TYPES):
            expected = oracle.expr_effects(node)
            assert analysis.expr_effects(node) == expected, (where, path)
            assert analysis.expr_is_pure(node) == expected.pure, (where, path)
            checked += 1
    return checked


def test_every_catalog_replay_step():
    checked = 0
    for name, side, step, description in replayed_forms():
        checked += assert_same_effects(description, f"{name} {side} step {step}")
    assert checked > 10_000


def test_fuzz_corpus_and_its_variants():
    checked = 0
    for name, text, _spec in CORPUS:
        description = _load(name, text)
        checked += assert_same_effects(description, name)
        for transformation, path, result in fuzz_variants(description):
            checked += assert_same_effects(
                result.description, f"{name} {transformation.name} at {path}"
            )
    assert checked > 1_000


@given(descriptions())
@settings(max_examples=100, deadline=None)
def test_random_descriptions(description):
    assert_same_effects(description)


def test_unknown_routine_call_reads_and_writes_memory():
    call = ast.Call("nowhere")
    description = ast.Description("d", ())
    effects = EffectAnalysis(description).expr_effects(call)
    assert effects == FoldingEffects(description).expr_effects(call)
    assert effects == Effects(frozenset({MEM}), frozenset({MEM}))
