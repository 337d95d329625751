"""Prove-then-sample integration: verify fast path, runner, keys, API."""

import dataclasses

import pytest

from repro.analyses import movsb_pascal, scasb_rigel
from repro.analysis import VerificationFailure, verify_binding
from repro.analysis.config import RunConfig
from repro.analysis.verify import CONFIRM_TRIALS
from repro.isdl import ast
from repro.isdl.visitor import replace_at, walk


@pytest.fixture(scope="module")
def binding():
    outcome = movsb_pascal.run(RunConfig(verify=False))
    assert outcome.succeeded
    return outcome.binding


class TestVerifyFastPath:
    def test_proved_binding_runs_confirmation_window(self, binding):
        report = verify_binding(
            binding,
            movsb_pascal.SCENARIO,
            config=RunConfig(trials=120, symbolic=True),
        )
        assert report.prove_verdict == "proved"
        assert report.trials == 120  # the plan is unchanged
        assert report.executed_trials == CONFIRM_TRIALS
        assert report.confirmed_trials == CONFIRM_TRIALS
        assert "symbolic: proved" in str(report)

    def test_small_plans_are_not_inflated(self, binding):
        report = verify_binding(
            binding,
            movsb_pascal.SCENARIO,
            config=RunConfig(trials=8, symbolic=True),
        )
        assert report.prove_verdict == "proved"
        # 8 < CONFIRM_TRIALS: the full (tiny) sweep simply runs.
        assert report.executed_trials is None
        assert report.confirmed_trials == 8

    def test_without_symbolic_nothing_changes(self, binding):
        report = verify_binding(
            binding, movsb_pascal.SCENARIO, config=RunConfig(trials=20)
        )
        assert report.prove_verdict is None
        assert report.executed_trials is None
        assert report.confirmed_trials == 20

    def test_fast_path_works_on_every_engine(self, binding):
        for engine in ("interp", "vectorized"):
            report = verify_binding(
                binding,
                movsb_pascal.SCENARIO,
                config=RunConfig(trials=60, symbolic=True, engine=engine),
            )
            assert report.prove_verdict == "proved"
            assert report.confirmed_trials == CONFIRM_TRIALS

    def test_refuted_binding_fails_through_callers_engine(self):
        outcome = scasb_rigel.run(RunConfig(verify=False))
        instruction = outcome.binding.augmented_instruction
        target = None
        for path, node in walk(instruction):
            if isinstance(node, ast.Output) and node.exprs == (ast.Const(0),):
                target = path
                break
        assert target is not None
        broken = replace_at(instruction, target, ast.Output((ast.Const(1),)))
        tampered = dataclasses.replace(
            outcome.binding, augmented_instruction=broken
        )
        with pytest.raises(VerificationFailure):
            verify_binding(
                tampered,
                scasb_rigel.SCENARIO,
                config=RunConfig(trials=200, symbolic=True),
            )


class TestRunnerIntegration:
    def test_batch_records_confirmed_trials(self):
        from repro.analysis.runner import run_batch

        report = run_batch(
            ["movsb_pascal"], config=RunConfig(trials=60, symbolic=True)
        )
        (result,) = report.results
        assert result.succeeded
        # Honest accounting: the record carries what actually ran, not
        # the planned sweep.
        assert 0 < result.verified_trials < 60

    def test_symbolic_off_keeps_full_sweep(self):
        from repro.analysis.runner import run_batch

        report = run_batch(["movsb_pascal"], config=RunConfig(trials=60))
        (result,) = report.results
        assert result.verified_trials == 60


class TestVerdictKey:
    def test_symbolic_is_a_key_component(self):
        from repro.provenance.store import verdict_key

        base = dict(
            name="movsb_pascal",
            operator_digest="op",
            instruction_digest="in",
            engine="vectorized",
            trials=60,
            seed=1982,
            verify=True,
            epoch="e",
        )
        fast = verdict_key(symbolic=True, **base)
        full = verdict_key(symbolic=False, **base)
        assert fast["symbolic"] is True
        assert fast != full


class TestApiProve:
    def test_proved_result(self):
        from repro import api

        result = api.prove("movsb_pascal")
        assert result.verdict == "proved"
        assert result.ok
        assert result.term_nodes > 0
        payload = result.to_dict()
        assert payload["name"] == "movsb_pascal"
        assert payload["verdict"] == "proved"

    def test_no_binding_is_skipped(self):
        from repro import api

        result = api.prove("movc3_sassign_failure")
        assert result.verdict == "skipped"
        assert result.ok
        assert "binding" in result.reason

    def test_no_scenario_is_skipped(self):
        from repro import api

        result = api.prove("srl_listsearch")
        assert result.verdict == "skipped"
        assert "scenario" in result.reason

    def test_unknown_name_raises(self):
        from repro import api

        with pytest.raises(api.UnknownAnalysisError):
            api.prove("no_such_analysis")

    def test_verify_facade_takes_symbolic(self):
        from repro import api

        result = api.verify("movsb_pascal", trials=60, symbolic=True)
        assert result.ok
