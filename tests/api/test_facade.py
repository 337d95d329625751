"""Contract tests for the :mod:`repro.api` facade.

The facade's promise is that scripting a workflow never means shelling
out: every CLI subcommand is a thin wrapper, so the facade must return
*exactly* what the CLI prints (byte-identical JSON for ``batch``) and
raise the same errors the CLI reports before exiting 2.
"""

import json

import pytest

import repro
from repro import api


def _cli_stdout(capsys, argv):
    from repro.__main__ import main

    rc = main(argv)
    return rc, capsys.readouterr().out


class TestBatchFacade:
    def test_batch_json_byte_identical_to_cli(self, capsys):
        result = api.batch(
            ["scasb_rigel"], api.RunConfig(trials=5, seed=11)
        )
        rc, out = _cli_stdout(
            capsys,
            [
                "batch",
                "scasb_rigel",
                "--trials",
                "5",
                "--seed",
                "11",
                "--no-cache",
                "--json",
            ],
        )
        assert rc == 0
        # print() appends exactly one newline to the canonical JSON.
        assert out == result.to_json() + "\n"

    def test_metrics_block_is_additive_only(self):
        plain = api.batch(["scasb_rigel"], api.RunConfig(trials=5))
        metered = api.batch(
            ["scasb_rigel"], api.RunConfig(trials=5), metrics=True
        )
        assert plain.metrics is None
        assert metered.metrics is not None
        payload = json.loads(metered.to_json())
        assert payload.pop("metrics") == metered.metrics
        assert json.dumps(payload, indent=2, sort_keys=True) == plain.to_json()

    def test_batch_result_views(self):
        result = api.batch(["scasb_rigel"], api.RunConfig(trials=5))
        assert result.ok
        (job,) = result.results
        assert job.name == "scasb_rigel"
        assert job.verified_trials == 5
        assert any("scasb_rigel" in line for line in result.summary_lines())

    def test_unknown_name_raises_value_error_subtype(self):
        with pytest.raises(api.UnknownAnalysisError) as info:
            api.batch(["nosuch"])
        assert isinstance(info.value, ValueError)


class TestAnalyzeAndVerifyFacade:
    def test_analyze_round_trip(self):
        result = api.analyze("scasb_rigel", api.RunConfig(trials=5))
        assert result.succeeded
        assert result.steps is not None and result.steps > 0
        assert result.failure is None
        assert "scasb" in result.report

    def test_analyze_unknown_name_uses_cli_message(self):
        with pytest.raises(api.UnknownAnalysisError, match="unknown analysis"):
            api.analyze("nosuch")

    def test_verify_round_trip(self):
        result = api.verify("scasb_rigel", trials=5, seed=11)
        assert result.ok
        assert result.name == "scasb_rigel"
        assert result.verified_trials == 5
        assert result.trials == 5
        assert result.seed == 11
        assert result.engine == "vectorized"
        assert result.failure is None
        assert result.error is None

    def test_verify_validates_name_before_running(self):
        with pytest.raises(api.UnknownAnalysisError, match="unknown analysis"):
            api.verify("nosuch")


class TestTraceAndReplayFacade:
    def test_trace_fresh_derivation(self):
        result = api.trace("scasb_rigel")
        assert result is not None
        assert result.origin == "fresh"
        assert result.steps > 0
        assert len(result.digest) >= 12
        assert result.to_dict()["digest"] == result.digest
        assert result.log()

    def test_trace_stored_comes_from_cache_dir(self, tmp_path):
        # The batch runner populates the store; trace then reads it back.
        fresh = api.trace("scasb_rigel")
        api.batch(
            ["scasb_rigel"], api.RunConfig(trials=3, cache_dir=tmp_path)
        )
        stored = api.trace("scasb_rigel", cache_dir=tmp_path)
        assert fresh is not None and stored is not None
        assert stored.origin == "stored"
        assert stored.digest == fresh.digest

    def test_replay_self_check(self):
        result = api.replay(["scasb_rigel"])
        assert result.ok
        assert result.failed == 0
        (entry,) = result.entries
        assert entry.ok
        assert entry.origin == "fresh"
        assert entry.digest

    def test_replay_checks_stored_traces(self, tmp_path):
        api.batch(
            ["scasb_rigel"], api.RunConfig(trials=3, cache_dir=tmp_path)
        )
        result = api.replay(["scasb_rigel"], cache_dir=tmp_path)
        (entry,) = result.entries
        assert entry.ok
        assert entry.origin == "stored"


class TestStatsFacade:
    def test_stats_counts_the_run(self):
        result = api.stats(["scasb_rigel"], api.RunConfig(trials=3))
        assert result.counter("repro_verify_trials_total") == 3
        assert result.snapshot["schema"] == "repro.metrics/1"
        assert result.to_json().startswith("{")
        assert "# TYPE repro_verify_trials_total counter" in result.to_prometheus()

    def test_stats_does_not_leak_collection(self):
        from repro import obs

        api.stats(["scasb_rigel"], api.RunConfig(trials=3))
        assert not obs.enabled()


class TestPackageSurface:
    def test_top_level_reexports(self):
        assert repro.analyze is api.analyze
        assert repro.batch is api.batch
        assert repro.verify is api.verify
        assert repro.trace is api.trace
        assert repro.replay is api.replay
        assert repro.stats is api.stats
        assert repro.RunConfig is api.RunConfig

    def test_facade_all_is_complete(self):
        for name in api.__all__:
            assert hasattr(api, name), name
