"""The spec-driven differential-fuzz matrix.

Where :mod:`tests.machines.test_differential_sim` hand-writes one test
per instruction, this suite runs the :class:`~repro.machines.spec.FuzzCase`
records straight out of the machine specs — every simulated
instruction of every machine, under every execution engine.  Adding a
machine to this matrix requires no test code: a spec with fuzz cases
is automatically collected.

The quick matrix (25 trials per cell) runs in the tier-1 suite; the
``slow``-marked campaign reproduces the acceptance criterion for the
data-only machines — Z80 and M68000 survive 10^4 trials with zero
machine-specific simulator code.
"""

import pytest

from repro.machines import fuzz
from repro.machines.catalog import load_description
from repro.machines.fuzz import fuzz_targets, run_campaign, run_trial
from repro.machines.registry import EXTENSION_KEYS, machine_spec
from repro.semantics import ExecutionEngine
from repro.semantics.engine import ENGINE_NAMES, EngineMismatchError
from repro.semantics.vectorized import _observe

TARGETS = fuzz_targets()

TRIALS = 25


class TestMatrixShape:
    def test_every_simulated_machine_contributes_cases(self):
        machines = {machine for machine, _ in TARGETS}
        assert machines == {
            "i8086", "ibm370", "b4800", "vax11", "z80", "m68000",
        }

    def test_extension_machines_are_pure_data(self):
        # The acceptance criterion's precondition: the new machines
        # define no execute() of their own — every simulated mnemonic
        # resolves through the shared kind library.
        from repro.machines.specsim import SpecSimulator
        from repro.machines.fuzz import simulator_class

        for key in EXTENSION_KEYS:
            cls = simulator_class(key)
            assert issubclass(cls, SpecSimulator)
            assert "execute" not in cls.__dict__

    def test_every_fuzz_case_covers_a_modeled_instruction(self):
        for machine, case_name in TARGETS:
            instruction = next(
                i
                for i in machine_spec(machine).instructions
                if i.mnemonic == case_name
            )
            assert instruction.modeled, (machine, case_name)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize(
    "machine,case_name", TARGETS, ids=[f"{m}-{c}" for m, c in TARGETS]
)
class TestDifferentialMatrix:
    def test_quick_campaign(self, machine, case_name, engine_name):
        engine = ExecutionEngine(engine_name)
        assert run_campaign(machine, case_name, TRIALS, engine) == TRIALS


class TestDeterminism:
    def test_trials_replay_exactly(self):
        # A reported mismatch must be reproducible from its
        # (machine, case, engine, trial) coordinates alone: the same
        # trial re-runs without raising, twice.
        run_trial("z80", "cpir", 7)
        run_trial("z80", "cpir", 7)


class TestCampaignBatches:
    def test_gate_mismatch_names_the_campaign_trial(
        self, planted_vector_bug, monkeypatch
    ):
        # One executor runs a campaign's batches, so its gate numbers
        # their lanes by campaign trial: with one lane per batch, the
        # mismatch names the first trial the planted kernel gets wrong.
        machine, case_name = "m68000", "cmpm"
        case = fuzz._fuzz_case(machine, case_name)
        description = load_description(machine, case_name)
        kernel = ExecutionEngine(gate="off").executor(description)
        reference = ExecutionEngine("interp").executor(description)

        def wrong(trial):
            _, inputs, memory = fuzz._draw(machine, case, "vectorized", trial)
            batch = kernel.run_batch(
                {name: [value] for name, value in inputs.items()}, [memory], n=1
            )
            return batch.lane_outcomes([0])[0][:3] != _observe(
                reference, inputs, memory
            )[:3]

        first = next(trial for trial in range(TRIALS) if wrong(trial))
        assert first > 0
        monkeypatch.setattr(fuzz, "CAMPAIGN_LANES", 1)
        with pytest.raises(EngineMismatchError, match=r"\(trial %d, " % first):
            run_campaign(machine, case_name, TRIALS)

    def test_campaign_draws_the_states_run_trial_replays(self, monkeypatch):
        # Every campaign lane is the state its coordinates replay: the
        # simulator comparison of each batched lane sees the inputs and
        # memory run_trial draws for that trial.
        seen = []
        compare = fuzz._compare

        def spy(machine, case, engine, trial, draw, run):
            seen.append((trial, draw[1], draw[2], run))
            return compare(machine, case, engine, trial, draw, run)

        monkeypatch.setattr(fuzz, "CAMPAIGN_LANES", 3)
        monkeypatch.setattr(fuzz, "_compare", spy)
        assert run_campaign("z80", "cpir", 8) == 8
        batched, seen[:] = list(seen), []
        for trial in range(8):
            run_trial("z80", "cpir", trial)
        assert [entry[0] for entry in batched] == list(range(8))
        assert batched == seen


@pytest.mark.slow
@pytest.mark.parametrize("key", EXTENSION_KEYS)
def test_extension_machines_survive_ten_thousand_trials(key):
    for case in machine_spec(key).fuzz:
        assert run_campaign(key, case.name, 10_000) == 10_000
