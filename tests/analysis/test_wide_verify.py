"""One wide batch per description for an entry's shards.

The serial batch runner verifies an entry's 64-trial shards as windows
of one ``verify_binding`` call (up to ``RUN_SHARDS`` at a time).  These
tests pin what must not change when the windows share one batch:

* the differential gate checks exactly the lanes a per-shard run
  checks — each window numbers its gate trials from 0;
* every window gets the outcome a call of its own gives it, whether
  its lanes disagree or the engine is miscompiled; a flagged window
  gets it from one replay of its first flagged lane on the
  interpreter, not from a second verification, so a kernel bug the
  gate did not sample is never reported as a binding failure;
* serial and pooled runs (both run one job per entry, its shards as
  windows of one call) produce the same report bytes;
* the number of kernel runs falls to one per description per run of
  at most ``RUN_SHARDS`` shards.
"""

from collections import Counter

import pytest

from repro import api, obs
from repro.analysis import RunConfig
from repro.analysis import runner as runner_module
from repro.analysis.pool import shutdown_pool
from repro.analysis.runner import SHARD_TRIALS, run_batch, shard_plan
from repro.analysis.verify import (
    CONFIRM_TRIALS,
    VerificationFailure,
    verify_binding,
)
from repro.semantics import ENGINE_NAMES, ScenarioStream, derive_seed
from repro.semantics.engine import GATE_PERIOD, GATE_SEED, EngineMismatchError
from repro.semantics.vectorized import HAVE_NUMPY, VectorizedDescription
from tests.integration.test_vectorized_fuzz import planted_binding, planted_spec

#: windows of the planted defect's stream: mixed sizes, some back to
#: back and some not, so both the single draw and the stacked draw run.
PLANTED_WINDOWS = ((0, 1), (1, 1), (2, 3), (5, 1), (9, 2), (40, 64), (200, 1))


def _module(name):
    import importlib

    return importlib.import_module(f"repro.analyses.{name}")


def _sampled(name, count):
    """Gate indices a fresh per-shard executor checks in ``count`` trials."""
    return [
        index
        for index in range(count)
        if index == 0
        or derive_seed(GATE_SEED, "gate", name, index) % GATE_PERIOD == 0
    ]


@pytest.fixture
def gate_log(monkeypatch):
    """Every interpreter cross-check: (description, gate index, memory)."""
    log = []
    compare = VectorizedDescription._compare

    def spy(self, got, inputs, memory, index):
        log.append((self.description.name, index, tuple(sorted(memory.items()))))
        return compare(self, got, inputs, memory, index)

    monkeypatch.setattr(VectorizedDescription, "_compare", spy)
    return log


def _expected_checks(name, trials, seed, symbolic):
    """The checks a per-shard run of ``name`` makes, as a multiset.

    Without numpy every batch runs on the interpreter, and the gate
    re-runs none of its lanes.
    """
    module = _module(name)
    _, outcome = runner_module._replay(name)
    stream = ScenarioStream(module.SCENARIO, seed)
    expected = Counter()
    if not HAVE_NUMPY:
        return expected
    for offset, count in shard_plan(trials):
        ran = min(count, CONFIRM_TRIALS) if symbolic else count
        for description in (
            outcome.binding.final_operator,
            outcome.binding.augmented_instruction,
        ):
            for index in _sampled(description.name, ran):
                memory = stream.at(offset + index).memory
                expected[
                    (description.name, index, tuple(sorted(memory.items())))
                ] += 1
    return expected


class TestGateSet:
    @pytest.mark.parametrize("symbolic", [False, True])
    def test_deep_verify_checks_each_windows_own_lanes(self, gate_log, symbolic):
        name = "scasb_rigel"
        result = api.verify(name, trials=2048, symbolic=symbolic)
        assert result.ok
        assert Counter(gate_log) == _expected_checks(name, 2048, 1982, symbolic)
        # Every one of the 32 windows checks its own first lane.
        firsts = [entry for entry in gate_log if entry[1] == 0]
        assert len(firsts) == (2 * (2048 // SHARD_TRIALS) if HAVE_NUMPY else 0)

    def test_default_batch_checks_each_windows_own_lanes(self, gate_log):
        report = run_batch()
        assert report.ok
        expected = Counter()
        for entry in runner_module.resolve_names(None):
            if entry.has_scenario and not entry.expect_failure:
                expected += _expected_checks(entry.name, 120, 1982, False)
        assert Counter(gate_log) == expected


def _outcome(result):
    if isinstance(result, VerificationFailure):
        return ("failure", str(result), result.scenario)
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return ("ok", result.offset, result.trials, result.confirmed_trials)


def _alone(binding, spec, engine, gate, offset, count):
    try:
        return _outcome(
            verify_binding(
                binding,
                spec,
                RunConfig(engine=engine, trials=count),
                offset=offset,
                gate=gate,
            )
        )
    except Exception as error:  # noqa: BLE001 - compared as an outcome
        return _outcome(error)


def _windows_match_alone(binding, spec, engine, gate, windows):
    together = verify_binding(
        binding, spec, RunConfig(engine=engine), windows=windows, gate=gate
    )
    outcomes = [_outcome(result) for result in together]
    assert outcomes == [
        _alone(binding, spec, engine, gate, offset, count)
        for offset, count in windows
    ]
    return outcomes


class TestWindowParity:
    @pytest.mark.parametrize("gate", ["sampled", "off"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_planted_defect(self, engine, gate):
        outcomes = _windows_match_alone(
            planted_binding(), planted_spec(), engine, gate, PLANTED_WINDOWS
        )
        kinds = {outcome[0] for outcome in outcomes}
        # The windows mix clean and failing ones, and a failing window
        # carries the scenario that exhibits the defect.
        assert kinds == {"ok", "failure"}
        for outcome in outcomes:
            if outcome[0] == "failure":
                assert outcome[2].inputs["Len"] > 100

    @pytest.mark.parametrize("gate", ["sampled", "off"])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_planted_miscompile(self, planted_vector_bug, engine, gate):
        name = "scasb_rigel"
        runner_module._clear_replay_cache()
        _, outcome = runner_module._replay(name)
        outcomes = _windows_match_alone(
            outcome.binding,
            _module(name).SCENARIO,
            engine,
            gate,
            ((0, 64), (64, 64), (128, 5)),
        )
        kinds = {outcome[0] for outcome in outcomes}
        if engine == "vectorized" and gate == "sampled":
            assert "EngineMismatchError" in kinds
        if engine == "interp":
            assert kinds == {"ok"}

    def test_one_window_call_keeps_its_contract(self):
        with pytest.raises(VerificationFailure):
            verify_binding(
                planted_binding(),
                planted_spec(),
                RunConfig(trials=64),
                gate="sampled",
            )


class TestFlaggedWindows:
    def test_flagged_windows_are_replayed_not_verified_again(self):
        # Each flagged window replays its first flagged lane on the
        # interpreter: the windows' outcomes are the interpreter's, from
        # one batch run per description.
        with obs.collecting() as registry:
            together = verify_binding(
                planted_binding(),
                planted_spec(),
                RunConfig(),
                windows=PLANTED_WINDOWS,
                gate="sampled",
            )
            snapshot = registry.snapshot()
        reference = verify_binding(
            planted_binding(),
            planted_spec(),
            RunConfig(engine="interp"),
            windows=PLANTED_WINDOWS,
        )
        assert [_outcome(result) for result in together] == [
            _outcome(result) for result in reference
        ]
        counters = (
            "repro_engine_batch_runs_total",
            "repro_engine_lanes_total",
            "repro_verify_trials_total",
            "repro_verify_failures_total",
        )
        assert [obs.counter_value(snapshot, name) for name in counters] == [
            2,
            146,
            8,
            4,
        ]


class TestUngatedMiscompile:
    @pytest.mark.parametrize(
        "name, op, wrong", [("locc_rigel", "+", "-"), ("mvc_pascal", "=", "<>")]
    )
    def test_is_not_blamed_on_the_binding(self, plant_lowering, name, op, wrong):
        # With the gate off no lane is cross-checked, so only the
        # interpreter replay of the flagged lane can tell a kernel bug
        # from a wrong binding.
        plant_lowering(op, wrong)
        runner_module._clear_replay_cache()
        _, outcome = runner_module._replay(name)
        with pytest.raises(EngineMismatchError, match="interpreter replay passed"):
            verify_binding(outcome.binding, _module(name).SCENARIO, gate="off")


def _planted_entry(monkeypatch, name):
    """Make catalog entry ``name`` replay to the planted-defect binding."""

    class Module:
        SCENARIO = planted_spec()

    class Outcome:
        succeeded = True
        steps = 1
        failure = None
        trace = None
        binding = planted_binding()

    real = runner_module._replay

    def replay(entry):
        return (Module, Outcome) if entry == name else real(entry)

    replay.cache_clear = real.cache_clear
    monkeypatch.setattr(runner_module, "_replay", replay)


class TestSerialMatchesPooled:
    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        # Pool workers fork after the test's patches and never outlive it.
        shutdown_pool()
        yield
        shutdown_pool()

    def _both(self, names, config):
        serial = run_batch(names=names, config=config.replace(jobs=1))
        pooled = run_batch(names=names, config=config.replace(jobs=2))
        assert serial.to_json() == pooled.to_json()
        return serial

    def test_symbolic_odd_trial_count(self):
        report = self._both(None, RunConfig(symbolic=True, trials=130))
        assert report.ok
        assert {result.shards for result in report.results} >= {1, 3}

    def test_multi_shard_planted_failure(self, monkeypatch):
        _planted_entry(monkeypatch, "scasb_rigel")
        report = self._both(
            ["scasb_rigel", "movsb_pascal"], RunConfig(trials=130, seed=5)
        )
        by_name = {result.name: result for result in report.results}
        planted, other = by_name["scasb_rigel"], by_name["movsb_pascal"]
        assert planted.shards == 3 and not planted.ok
        assert planted.failure.startswith("VerificationFailure:")
        assert other.ok and other.verified_trials == 130


def _counts(names, config):
    with obs.collecting() as registry:
        report = run_batch(names=names, config=config)
        snapshot = registry.snapshot()
    report.metrics = None
    counters = (
        "repro_engine_batch_runs_total",
        "repro_engine_lanes_total",
        "repro_engine_gate_checks_total",
        "repro_verify_trials_total",
    )
    return report, [obs.counter_value(snapshot, name) for name in counters]


class TestBatchCount:
    def test_deep_verify_runs_one_batch_per_description(self):
        with obs.collecting() as registry:
            result = api.verify("scasb_rigel", trials=2048)
            snapshot = registry.snapshot()
        assert result.ok and result.verified_trials == 2048
        assert obs.counter_value(snapshot, "repro_engine_batch_runs_total") == 2
        assert obs.counter_value(snapshot, "repro_engine_lanes_total") == 4096
        assert obs.counter_value(snapshot, "repro_verify_trials_total") == 2048

    def test_long_entries_run_a_bounded_number_of_shards_per_batch(
        self, monkeypatch
    ):
        config = RunConfig(trials=300)  # five shards
        wide, wide_counts = _counts(["scasb_rigel"], config)
        monkeypatch.setattr(runner_module, "RUN_SHARDS", 2)
        runs, run_counts = _counts(["scasb_rigel"], config)
        assert runs.to_json() == wide.to_json()
        # Runs of 2, 2 and 1 shards: three batches per description; the
        # same lanes, gate checks and trials.
        assert run_counts == [6] + wide_counts[1:]
        assert wide_counts[0] == 2
