"""Tests for the unified :class:`repro.analysis.config.RunConfig`.

One parameter surface across the runner, the verifier, and the
benchmarks: each entry point takes its plan as one ``config``, a bare
call keeps the entry point's historical default plan, and a config
checks its own fields when it is constructed.
"""

import pytest

from repro.analyses import scasb_rigel
from repro.analysis import RunConfig, run_batch, verify_binding
from repro.analysis.bench import run_bench


@pytest.fixture(scope="module")
def binding():
    outcome = scasb_rigel.run(verify=False)
    assert outcome.binding is not None
    return outcome.binding


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


class TestRunConfigChecks:
    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": "abc"},
            {"trials": 1.5},
            {"trials": True},
            {"seed": 1.5},
            {"seed": "7"},
            {"jobs": "two"},
            {"jobs": False},
            {"verify": "no"},
            {"verify": 1},
            {"symbolic": "yes"},
            {"trials": -5},
            {"trials": 0},
            {"trials": -1, "verify": False},
            {"jobs": 0},
            {"timeout": 0},
            {"timeout": -1.0},
            {"timeout": "soon"},
            {"timeout": True},
        ],
    )
    def test_bad_field_is_rejected_with_its_name(self, fields):
        with pytest.raises(ValueError) as excinfo:
            RunConfig(**fields)
        assert any(name in str(excinfo.value) for name in fields)

    def test_replace_is_checked_too(self):
        with pytest.raises(ValueError, match="jobs"):
            RunConfig().replace(jobs=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": 0, "verify": False},
            {"trials": 1},
            {"jobs": 4, "timeout": 30},
            {"timeout": 0.5},
            {"seed": -3},
            {"cache_dir": "store", "symbolic": True},
        ],
    )
    def test_good_plans_construct(self, fields):
        assert RunConfig(**fields)


class TestDeprecatedEntryPoints:
    """The entry points that once took per-field keyword aliases."""

    def test_run_batch_config_and_legacy_mix_is_type_error(self):
        with pytest.raises(TypeError, match="run_batch"):
            run_batch(names=["scasb_rigel"], config=RunConfig(), trials=3)

    def test_run_batch_config_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run_batch(
                names=["scasb_rigel"], config=RunConfig(trials=3, verify=False)
            )
        assert report.trials == 3

    def test_verify_binding_preserves_historic_200_trial_default(self, binding):
        report = verify_binding(binding, scasb_rigel.SCENARIO)
        assert report.trials == 200

    def test_verify_binding_mix_is_type_error(self, binding):
        with pytest.raises(TypeError, match="verify_binding"):
            verify_binding(
                binding, scasb_rigel.SCENARIO, config=RunConfig(), trials=4
            )

    def test_run_bench_preserves_historic_240_trial_default(self, monkeypatch):
        # A bare call runs 240 trials; the timing itself is not needed.
        from repro.analysis import bench

        monkeypatch.setattr(bench, "bench_entries", lambda names: ())
        assert run_bench()["trials"] == 240

    @pytest.mark.parametrize(
        "call, keywords",
        [
            (
                lambda **kw: run_batch(["scasb_rigel"], **kw),
                ("jobs", "trials", "seed", "verify", "timeout", "engine",
                 "cache_dir"),
            ),
            (
                lambda **kw: verify_binding(None, None, **kw),
                ("trials", "seed", "engine"),
            ),
            (lambda **kw: run_bench(["scasb_rigel"], **kw), ("trials", "seed")),
        ],
        ids=["run_batch", "verify_binding", "run_bench"],
    )
    def test_legacy_keywords_are_gone(self, call, keywords):
        for keyword in keywords:
            with pytest.raises(TypeError, match=keyword):
                call(**{keyword: 1})
