"""Prover tests: corpus verdicts, planted defects, caching, lint wiring.

The acceptance contract lives here: the shipped corpus must never be
refuted (and mostly proves), while every planted defect must be
*refuted* with a counterexample that replays as the identical failing
trial, which a symbolic verification reports on either engine.
"""

import dataclasses

import pytest

from repro.analyses import movsb_pascal, mvc_pascal, scasb_rigel
from repro.analysis import RunConfig, VerificationFailure, verify_binding
from repro.isdl import ast
from repro.isdl.visitor import replace_at, walk
from repro.symbolic import (
    PROVED,
    REFUTED,
    UNKNOWN,
    clear_prove_cache,
    prove_binding,
    replay_counterexample,
)

ENGINES = ("interp", "vectorized")


@pytest.fixture(scope="module")
def movsb_binding():
    outcome = movsb_pascal.run(RunConfig(verify=False))
    assert outcome.succeeded
    return outcome.binding


@pytest.fixture(scope="module")
def scasb_binding():
    outcome = scasb_rigel.run(RunConfig(verify=False))
    assert outcome.succeeded
    return outcome.binding


def tamper(binding, predicate, rebuild):
    """Replace the first instruction AST node matching ``predicate``."""
    instruction = binding.augmented_instruction
    target = None
    for path, node in walk(instruction):
        if predicate(node):
            target = path
            break
    assert target is not None, "planted-defect anchor not found"
    broken = replace_at(instruction, target, rebuild(node))
    return dataclasses.replace(binding, augmented_instruction=broken)


def assert_refuted_with_replaying_counterexample(tampered, spec):
    report = prove_binding(tampered, spec)
    assert report.verdict == REFUTED, report
    assert report.counterexample is not None
    assert report.message
    with pytest.raises(VerificationFailure) as excinfo:
        replay_counterexample(tampered, report.counterexample)
    failures = {"replay": (type(excinfo.value), str(excinfo.value))}
    for engine in ENGINES:
        # A symbolic verification replays the counterexample as its
        # failing trial, whichever engine runs its batches.
        with pytest.raises(VerificationFailure) as excinfo:
            verify_binding(tampered, spec, RunConfig(engine=engine, symbolic=True))
        failures[engine] = (type(excinfo.value), str(excinfo.value))
    # Identical failure (type, message) on every engine, and identical
    # to what the prover recorded.
    assert len(set(failures.values())) == 1
    assert failures["replay"] == (VerificationFailure, report.message)
    return report


class TestCorpus:
    def test_shipped_corpus_never_refuted_and_mostly_proved(self):
        from repro import api
        from repro.analysis.runner import resolve_names

        counts = {PROVED: 0, REFUTED: 0, UNKNOWN: 0, "skipped": 0}
        verdicts = {}
        for entry in resolve_names(None):
            result = api.prove(entry.name)
            counts[result.verdict] += 1
            verdicts[entry.name] = result.verdict
        judged = counts[PROVED] + counts[REFUTED] + counts[UNKNOWN]
        assert counts[REFUTED] == 0, verdicts
        assert judged > 0
        assert counts[PROVED] / judged >= 0.6, verdicts
        # The paper's flagship example must be in the proved set.
        assert verdicts["scasb_rigel"] == PROVED

    def test_proved_report_shape(self, movsb_binding):
        report = prove_binding(movsb_binding, movsb_pascal.SCENARIO)
        assert report.verdict == PROVED
        assert report.term_nodes > 0
        assert report.counterexample is None
        assert "term nodes" in str(report)


class TestPlantedDefects:
    def test_output_off_by_one(self, scasb_binding):
        # The not-found epilogue returns 1 instead of 0.
        tampered = tamper(
            scasb_binding,
            lambda node: isinstance(node, ast.Output)
            and node.exprs == (ast.Const(0),),
            lambda node: ast.Output((ast.Const(1),)),
        )
        assert_refuted_with_replaying_counterexample(
            tampered, scasb_rigel.SCENARIO
        )

    def test_wrong_stride_memory_effect(self, movsb_binding):
        # Destination pointer strides by 2: only final memories differ.
        tampered = tamper(
            movsb_binding,
            lambda node: isinstance(node, ast.Assign)
            and node.target == ast.Var("di")
            and node.expr == ast.BinOp("+", ast.Var("di"), ast.Const(1)),
            lambda node: ast.Assign(
                ast.Var("di"), ast.BinOp("+", ast.Var("di"), ast.Const(2))
            ),
        )
        report = assert_refuted_with_replaying_counterexample(
            tampered, movsb_pascal.SCENARIO
        )
        assert "memories differ" in report.message

    def test_flipped_comparison(self, scasb_binding):
        # Search for "not equal" instead of "equal".
        tampered = tamper(
            scasb_binding,
            lambda node: isinstance(node, ast.BinOp)
            and node.op == "="
            and isinstance(node.left, ast.BinOp),
            lambda node: ast.BinOp("<>", node.left, node.right),
        )
        assert_refuted_with_replaying_counterexample(
            tampered, scasb_rigel.SCENARIO
        )

    def test_wrong_copy_source(self):
        # mvc copies from the destination instead of the source: the
        # loop shape is untouched, only the byte moved per pass.
        outcome = mvc_pascal.run(RunConfig(verify=False))
        assert outcome.succeeded
        tampered = tamper(
            outcome.binding,
            lambda node: isinstance(node, ast.Assign)
            and node.target == ast.MemRead(ast.Var("d1"))
            and node.expr == ast.MemRead(ast.Var("d2")),
            lambda node: ast.Assign(
                ast.MemRead(ast.Var("d1")), ast.MemRead(ast.Var("d1"))
            ),
        )
        assert_refuted_with_replaying_counterexample(
            tampered, mvc_pascal.SCENARIO
        )


class TestBudgetsAndCache:
    def test_tiny_node_budget_reports_unknown(self, movsb_binding):
        report = prove_binding(
            movsb_binding, movsb_pascal.SCENARIO, max_nodes=8
        )
        assert report.verdict == UNKNOWN
        assert "budget" in report.reason

    def test_tiny_statement_budget_reports_unknown(self, movsb_binding):
        report = prove_binding(
            movsb_binding, movsb_pascal.SCENARIO, max_stmts=3
        )
        assert report.verdict == UNKNOWN

    def test_reports_are_content_cached(self, movsb_binding):
        clear_prove_cache()
        first = prove_binding(movsb_binding, movsb_pascal.SCENARIO)
        second = prove_binding(movsb_binding, movsb_pascal.SCENARIO)
        assert first is second
        # A different budget is a different key, not a stale hit.
        other = prove_binding(
            movsb_binding, movsb_pascal.SCENARIO, max_nodes=8
        )
        assert other is not first

    @pytest.mark.parametrize("default_first", [False, True], ids=["fresh", "after_default"])
    def test_search_trials_is_part_of_the_key(self, scasb_binding, default_first):
        # Only the counterexample search can refute: with no search
        # trials the same binding proves unknown, whatever ran before.
        tampered = tamper(
            scasb_binding,
            lambda node: isinstance(node, ast.Output),
            lambda node: ast.Output(
                (ast.BinOp("+", node.exprs[0], ast.Const(1)),) + node.exprs[1:]
            ),
        )
        clear_prove_cache()
        if default_first:
            assert prove_binding(tampered, scasb_rigel.SCENARIO).verdict == REFUTED
        report = prove_binding(tampered, scasb_rigel.SCENARIO, search_trials=0)
        assert report.verdict == UNKNOWN

    def test_equal_content_hits_across_objects(self):
        clear_prove_cache()
        first = movsb_pascal.run(RunConfig(verify=False)).binding
        second = movsb_pascal.run(RunConfig(verify=False)).binding
        assert first is not second
        assert prove_binding(first, movsb_pascal.SCENARIO) is prove_binding(
            second, movsb_pascal.SCENARIO
        )


class TestLintWiring:
    def test_clean_binding_yields_no_findings(self, movsb_binding):
        from repro.lint import lint_binding_symbolic

        assert lint_binding_symbolic(movsb_binding, movsb_pascal.SCENARIO) == []

    def test_refuted_binding_yields_e401(self, scasb_binding):
        from repro.lint import lint_binding_symbolic

        tampered = tamper(
            scasb_binding,
            lambda node: isinstance(node, ast.Output)
            and node.exprs == (ast.Const(0),),
            lambda node: ast.Output((ast.Const(1),)),
        )
        findings = lint_binding_symbolic(tampered, scasb_rigel.SCENARIO)
        assert [f.code for f in findings] == ["E401"]
        assert "counterexample inputs" in findings[0].message

    def test_unknown_yields_w402(self, movsb_binding):
        from repro.lint import lint_binding_symbolic

        findings = lint_binding_symbolic(
            movsb_binding, movsb_pascal.SCENARIO, max_nodes=8
        )
        assert [f.code for f in findings] == ["W402"]
        assert "sampling still applies" in findings[0].message

    def test_default_binding_gate_never_sees_symbolic_codes(self, movsb_binding):
        from repro.lint import lint_binding

        codes = {d.code for d in lint_binding(movsb_binding)}
        assert not codes & {"E401", "W402"}


class TestObservability:
    def test_verdict_counters_and_histograms(self, movsb_binding):
        from repro import obs

        clear_prove_cache()
        with obs.collecting() as registry:
            prove_binding(movsb_binding, movsb_pascal.SCENARIO)
            snapshot = registry.snapshot()
        assert (
            obs.counter_value(
                snapshot, "repro_prove_verdicts_total", verdict="proved"
            )
            == 1
        )
        histograms = {
            sample["name"] for sample in snapshot["histograms"]
        }
        assert "repro_prove_term_nodes" in histograms
        assert "repro_prove_unroll_iterations" in histograms
