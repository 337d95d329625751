"""One function runs every analysis.

Every catalog module's ``run`` is :func:`repro.analyses.common.run_analysis`
bound to it: it takes the whole :class:`RunConfig` and nothing else, so
a plan's seed and symbolic switch reach the verifier from every caller.
A single trial runs on the interpreter and builds no kernel.
"""

import pytest

from repro import api, obs
from repro.analyses import REGISTRY
from repro.analysis import RunConfig
from repro.analysis.verify import CONFIRM_TRIALS
from repro.machines.fuzz import run_trial
from repro.semantics import clear_vector_cache


@pytest.mark.parametrize("spec", REGISTRY, ids=lambda spec: spec.name)
def test_replay_only_plan_verifies_nothing(spec):
    outcome = spec.module.run(RunConfig(verify=False))
    assert outcome.verification is None
    assert outcome.trace is not None


class TestAnalyzeRunsTheWholePlan:
    def test_seed(self):
        report = api.analyze(
            "scasb_rigel", RunConfig(seed=7, trials=64)
        ).outcome.verification
        assert (report.seed, report.trials) == (7, 64)
        assert report.prove_verdict is None

    def test_symbolic(self):
        report = api.analyze(
            "scasb_rigel", RunConfig(symbolic=True, trials=64)
        ).outcome.verification
        assert report.prove_verdict == "proved"
        assert report.confirmed_trials == CONFIRM_TRIALS


def _compile_misses(call):
    """``call``'s result and the kernel lowerings it paid for."""
    clear_vector_cache()
    with obs.collecting() as registry:
        result = call()
        snapshot = registry.snapshot()
    return result, obs.counter_value(snapshot, "repro_compile_cache_misses_total")


class TestSingleTrialsBuildNoKernel:
    @pytest.mark.parametrize("seed", [7, 1982, 4800])
    def test_list_verifier(self, seed):
        result, misses = _compile_misses(
            lambda: api.analyze("srl_listsearch", RunConfig(seed=seed, trials=400))
        )
        assert misses == 0
        report = result.outcome.verification
        assert (report.seed, report.trials) == (seed, 400)

    def test_spec_fuzz_trial(self):
        _, misses = _compile_misses(lambda: run_trial("i8086", "movsb", 3))
        assert misses == 0
