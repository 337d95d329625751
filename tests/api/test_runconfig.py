"""Tests for the unified :class:`repro.analysis.config.RunConfig`.

One parameter surface across the runner, the verifier, and the
benchmarks; every legacy keyword survives as a deprecated alias
(announced with :class:`DeprecationWarning`), and mixing a config with
legacy keywords is a hard :class:`TypeError` — there must be exactly
one source of truth for the plan.
"""

import warnings

import pytest

from repro.analyses import scasb_rigel
from repro.analysis import RunConfig, run_batch, verify_binding
from repro.analysis.bench import run_bench
from repro.analysis.config import _UNSET, resolve_config


@pytest.fixture(scope="module")
def binding():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        outcome = scasb_rigel.run(verify=False)
    assert outcome.binding is not None
    return outcome.binding


class TestResolveConfig:
    def test_defaults_pass_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = resolve_config(None, {"trials": _UNSET, "seed": _UNSET}, "f")
        assert cfg == RunConfig()

    def test_explicit_config_passes_through_silently(self):
        plan = RunConfig(trials=7, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = resolve_config(plan, {"trials": _UNSET}, "f")
        assert cfg is plan

    def test_legacy_keyword_warns_and_folds(self):
        with pytest.warns(DeprecationWarning, match="trials"):
            cfg = resolve_config(None, {"trials": 9, "seed": _UNSET}, "f")
        assert cfg.trials == 9
        assert cfg.seed == RunConfig().seed

    def test_entry_point_defaults_are_preserved(self):
        defaults = RunConfig(trials=200)
        cfg = resolve_config(None, {"trials": _UNSET}, "f", defaults=defaults)
        assert cfg.trials == 200
        with pytest.warns(DeprecationWarning):
            cfg = resolve_config(None, {"trials": 5}, "f", defaults=defaults)
        assert cfg.trials == 5

    def test_config_plus_legacy_is_type_error(self):
        with pytest.raises(TypeError, match="not both"):
            resolve_config(RunConfig(), {"trials": 9}, "f")

    def test_warning_names_the_caller_and_keywords(self):
        with pytest.warns(DeprecationWarning, match=r"my_func: the seed, trials"):
            resolve_config(None, {"trials": 1, "seed": 2}, "my_func")


class TestRunConfigValue:
    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().trials = 5  # type: ignore[misc]

    def test_replace(self):
        cfg = RunConfig(trials=10).replace(seed=4)
        assert (cfg.trials, cfg.seed) == (10, 4)

    def test_resolve_engine_names(self):
        assert RunConfig(engine="interp").resolve_engine().name == "interp"
        assert RunConfig(engine="vectorized").resolve_engine().name == "vectorized"
        assert RunConfig().resolve_engine().name == "vectorized"


class TestDeprecatedEntryPoints:
    def test_run_batch_legacy_keywords_warn(self):
        with pytest.warns(DeprecationWarning, match="run_batch"):
            report = run_batch(names=["scasb_rigel"], trials=3, verify=False)
        assert report.trials == 3

    def test_run_batch_config_and_legacy_mix_is_type_error(self):
        with pytest.raises(TypeError, match="run_batch"):
            run_batch(names=["scasb_rigel"], config=RunConfig(), trials=3)

    def test_run_batch_config_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run_batch(
                names=["scasb_rigel"], config=RunConfig(trials=3, verify=False)
            )
        assert report.trials == 3

    def test_verify_binding_legacy_keywords_warn(self, binding):
        with pytest.warns(DeprecationWarning, match="verify_binding"):
            report = verify_binding(binding, scasb_rigel.SCENARIO, trials=4)
        assert report.trials == 4

    def test_verify_binding_preserves_historic_200_trial_default(self, binding):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = verify_binding(binding, scasb_rigel.SCENARIO)
        assert report.trials == 200

    def test_verify_binding_mix_is_type_error(self, binding):
        with pytest.raises(TypeError, match="verify_binding"):
            verify_binding(
                binding, scasb_rigel.SCENARIO, config=RunConfig(), trials=4
            )

    def test_run_bench_legacy_keywords_warn(self):
        with pytest.warns(DeprecationWarning, match="run_bench"):
            payload = run_bench(names=["scasb_rigel"], trials=2, seed=5)
        assert payload["trials"] == 2
