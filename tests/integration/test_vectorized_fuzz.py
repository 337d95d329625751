"""Large-scale vectorized fuzzing and failure-report parity.

Three guarantees ride on the vectorized verifier:

* at scale it reaches the same verdict as the interpreter — ten
  thousand randomized machine states per instruction, across all four
  target machines, must come back clean exactly as they do there;
* when a binding *is* wrong, the failure report is indistinguishable
  from the interpreter's — same first-failing trial, same message,
  same attached scenario — so a red verdict never depends on which
  engine produced it;
* both hold on hosts without numpy, where every vectorized batch
  runs lane by lane on the interpreter over scalar scenario draws.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RunConfig
from repro.analysis.binding import Binding
from repro.analysis.runner import _clear_replay_cache, _replay
from repro.analysis.verify import VerificationFailure, verify_binding
from repro.constraints import RangeConstraint
from repro.isdl import parse_description
from repro.semantics import ENGINE_NAMES

#: one verified analysis per target machine.
FUZZ_TARGETS = (
    ("scasb_rigel", "8086"),
    ("locc_rigel", "vax-11"),
    ("mvc_pascal", "370"),
    ("mva_pascal", "4800"),
)

FUZZ_TRIALS = 10_000


@pytest.mark.slow
@pytest.mark.parametrize(
    "analysis, machine", FUZZ_TARGETS, ids=[a for a, _ in FUZZ_TARGETS]
)
def test_ten_thousand_trials_per_machine(analysis, machine):
    """10^4 randomized states per instruction, batch-verified clean."""
    _clear_replay_cache()
    module, outcome = _replay(analysis)
    assert outcome.succeeded, f"{analysis} replay failed"
    report = verify_binding(
        outcome.binding,
        module.SCENARIO,
        gate="off",
        config=RunConfig(trials=FUZZ_TRIALS, engine="vectorized"),
    )
    assert report.trials == FUZZ_TRIALS
    assert report.engine == "vectorized"
    assert machine in outcome.binding.machine.lower().replace(" ", "")


# ---------------------------------------------------------------------------
# failure-report parity on a planted defect

OPERATOR_TEXT = """
demo.operation := begin
    ** ARGS **
        Len: integer,
        Base: integer
    ** EXECUTE **
        demo.execute() := begin
            input (Len, Base);
            output (Base + Len);
        end
end
"""

#: wrong on exactly the trials where ``len`` lands above 100 — a
#: trial-dependent defect, so the *first failing trial* is a property
#: of the scenario stream that every engine must reproduce.
PLANTED_INSTRUCTION_TEXT = """
demo.instruction := begin
    ** REGISTERS **
        len<7:0>,
        d1<15:0>
    ** EXECUTE **
        demo.execute() := begin
            input (len, d1);
            if (len > 100) then
                d1 <- (d1 + len) + 1;
            else
                d1 <- d1 + len;
            end_if;
            output (d1);
        end
end
"""


def planted_binding():
    return Binding(
        operator="demo.op",
        language="Demo",
        machine="demo",
        instruction="demo",
        operation="demo op",
        steps=1,
        operand_map={"Len": "len", "Base": "d1"},
        constraints=(
            RangeConstraint("Len", 0, 255),
            RangeConstraint("Base", 0, 60000),
        ),
        augmented_instruction=parse_description(PLANTED_INSTRUCTION_TEXT),
        final_operator=parse_description(OPERATOR_TEXT),
        augmented=False,
    )


def planted_spec():
    from repro.semantics import OperandSpec, ScenarioSpec

    return ScenarioSpec(
        operands={
            "Len": OperandSpec("range", lo=0, hi=255),
            "Base": OperandSpec("range", lo=0, hi=60000),
        }
    )


def test_planted_defect_report_is_engine_independent():
    """Every engine reports the same failure for the same bad binding."""
    binding = planted_binding()
    spec = planted_spec()
    reports = {}
    for engine in ENGINE_NAMES:
        with pytest.raises(VerificationFailure) as excinfo:
            verify_binding(
                binding,
                spec,
                gate="off",
                config=RunConfig(trials=200, engine=engine),
            )
        failure = excinfo.value
        assert failure.scenario is not None
        reports[engine] = (
            str(failure),
            failure.scenario.inputs,
            failure.scenario.memory,
        )
    assert reports["vectorized"] == reports["interp"]
    # The defect fires only above the threshold, so the reported
    # scenario must actually exhibit it.
    assert reports["interp"][1]["Len"] > 100


def test_planted_defect_survives_offset_sharding():
    """Shard windows see the same per-trial verdicts as the full run."""
    binding = planted_binding()
    spec = planted_spec()

    def first_failure(engine, offset, trials):
        try:
            verify_binding(
                binding,
                spec,
                gate="off",
                offset=offset,
                config=RunConfig(trials=trials, engine=engine),
            )
        except VerificationFailure as failure:
            return (str(failure), failure.scenario.inputs)
        return None

    for offset, trials in ((0, 60), (60, 60), (120, 80)):
        scalar = first_failure("interp", offset, trials)
        batch = first_failure("vectorized", offset, trials)
        assert batch == scalar


# ---------------------------------------------------------------------------
# the numpy-less path, with numpy blocked in a child process: every
# vectorized batch there runs on interpreter lanes

ROOT = Path(__file__).resolve().parents[2]

#: child prelude: a meta-path finder that refuses numpy, so the child
#: takes the numpy-less paths even on a host that has numpy installed.
NO_NUMPY = """
import sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")
        return None

sys.meta_path.insert(0, _NoNumpy())
from repro.semantics.vectorized import HAVE_NUMPY
assert not HAVE_NUMPY
"""


def without_numpy(code, *args):
    """Run ``code`` in a fresh interpreter that cannot import numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY + code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_no_numpy_batch_matches_interp():
    """Without numpy, a vectorized batch reports the interpreter's bytes."""
    names = ["scasb_rigel", "mvc_pascal", "clc_pascal", "tr_pascal", "mva_pascal"]
    reports = {
        engine: without_numpy(
            "import runpy; runpy.run_module('repro', run_name='__main__')",
            "batch", *names, "--trials", "40", "--seed", "7",
            "--json", "--no-cache", "--engine", engine,
        )
        for engine in ENGINE_NAMES
    }
    assert reports["vectorized"] == reports["interp"]


def test_no_numpy_planted_defect_raises_on_both_engines():
    """Without numpy, the planted defect fails exactly as it does here."""
    stdout = without_numpy(
        """
import json
from repro.analysis import RunConfig
from repro.analysis.verify import VerificationFailure, verify_binding
from repro.semantics import ENGINE_NAMES
from tests.integration.test_vectorized_fuzz import planted_binding, planted_spec

reports = {}
for engine in ENGINE_NAMES:
    try:
        verify_binding(
            planted_binding(),
            planted_spec(),
            config=RunConfig(engine=engine, trials=200),
            gate="off",
        )
    except VerificationFailure as failure:
        reports[engine] = [str(failure), failure.scenario.inputs]
print(json.dumps(reports))
"""
    )
    reports = json.loads(stdout)
    with pytest.raises(VerificationFailure) as excinfo:
        verify_binding(
            planted_binding(),
            planted_spec(),
            config=RunConfig(engine="interp", trials=200),
            gate="off",
        )
    local = [str(excinfo.value), excinfo.value.scenario.inputs]
    assert reports == {engine: local for engine in ENGINE_NAMES}
