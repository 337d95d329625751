"""The static pre-flight over bindings (E301-E304) and its gates.

The acceptance bar: a deliberately-wrong binding must be rejected by
the interval/constraint pre-check *before any fuzz trial executes* —
in :func:`repro.analysis.verify.verify_binding`, in the batch runner,
and in the codegen binding database.
"""

import pytest

from repro.analysis import RunConfig
from repro.analysis.binding import Binding
from repro.analysis.runner import BatchJob, execute_shards
from repro.analysis import runner as runner_module
from repro.analysis import verify as verify_module
from repro.codegen.bindings_db import _binding_from, library_for
from repro.constraints import (
    OffsetConstraint,
    RangeConstraint,
    ValueConstraint,
)
from repro.isdl import parse_description
from repro.lint import LintGateError, lint_binding

from .helpers import only

INSTRUCTION_TEXT = """
demo.instruction := begin
    ** REGISTERS **
        len<7:0>,
        df<>,
        d1<15:0>
    ** EXECUTE **
        demo.execute() := begin
            input (len, df, d1);
            assert (df = 0);
            d1 <- d1 + len;
            output (d1);
        end
end
"""

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


def make_binding(constraints):
    return Binding(
        operator="demo.op",
        language="Demo",
        machine="demo",
        instruction="demo",
        operation="demo op",
        steps=1,
        operand_map={"Len": "len", "Base": "d1"},
        constraints=tuple(constraints),
        augmented_instruction=parse_description(INSTRUCTION_TEXT),
        final_operator=parse_description(OPERATOR_TEXT),
        augmented=False,
    )


GOOD_CONSTRAINTS = (
    RangeConstraint("Len", 1, 256),
    OffsetConstraint("len", -1, note="encoded as count - 1"),
    RangeConstraint("Base", 0, 65535),
    ValueConstraint("df", 0),
)


class TestLintBinding:
    def test_consistent_binding_passes(self):
        assert lint_binding(make_binding(GOOD_CONSTRAINTS)) == []

    def test_e301_range_overflows_register(self):
        # Without the -1 coding offset, [1, 256] cannot live in an
        # 8-bit length field.
        binding = make_binding(
            (RangeConstraint("Len", 1, 256), ValueConstraint("df", 0))
        )
        diagnostic = only(lint_binding(binding), "E301")
        assert "len" in diagnostic.message
        assert "8-bit" in diagnostic.message

    def test_e302_fixed_value_outside_register(self):
        binding = make_binding(
            (RangeConstraint("Len", 0, 255), ValueConstraint("df", 2))
        )
        diagnostic = only(lint_binding(binding), "E302")
        assert "df" in diagnostic.message

    def test_e303_empty_range(self):
        binding = make_binding((RangeConstraint("Len", 9, 3),))
        diagnostic = only(lint_binding(binding), "E303")
        assert "[9, 3]" in diagnostic.message

    def test_e304_constraints_contradict_instruction_assert(self):
        # Fixing df to 1 contradicts the description's own
        # ``assert (df = 0)`` — caught abstractly, no execution.
        binding = make_binding(
            (RangeConstraint("Len", 0, 255), ValueConstraint("df", 1))
        )
        diagnostic = only(lint_binding(binding), "E304")
        assert diagnostic.routine == "demo.execute"

    def test_internal_ranges_not_checked_against_registers(self):
        constraint = RangeConstraint(
            "Len", 0, 100000, is_operand=False, note="internal temp"
        )
        binding = make_binding((constraint, ValueConstraint("df", 0)))
        assert lint_binding(binding) == []

    def test_all_shipped_bindings_pass_the_gate(self):
        for machine in ("i8086", "vax11", "ibm370", "b4800"):
            library = library_for(machine)
            for operator in library.operators():
                for binding in library.candidates(operator):
                    assert lint_binding(binding) == []


class TestVerifyGate:
    def test_wrong_binding_rejected_before_any_trial(self, monkeypatch):
        def no_trials(*_args, **_kwargs):
            raise AssertionError("a fuzz trial ran before the lint gate")

        monkeypatch.setattr(verify_module, "ScenarioStream", no_trials)
        binding = make_binding(
            (RangeConstraint("Len", 1, 256), ValueConstraint("df", 0))
        )
        with pytest.raises(LintGateError) as excinfo:
            verify_module.verify_binding(
                binding,
                spec=None,
                config=RunConfig(trials=50),
            )
        assert any(d.code == "E301" for d in excinfo.value.diagnostics)


class TestRunnerGate:
    def test_gate_rejection_is_a_distinct_structured_error(self, monkeypatch):
        binding = make_binding(
            (RangeConstraint("Len", 1, 256), ValueConstraint("df", 0))
        )

        class FakeOutcome:
            succeeded = True
            steps = 4
            failure = None

        FakeOutcome.binding = binding

        class FakeModule:
            SCENARIO = None

        monkeypatch.setattr(
            runner_module, "_replay", lambda name: (FakeModule, FakeOutcome)
        )
        (record,) = execute_shards(BatchJob("fake", ((0, 64),), 1982))
        assert record["error"] is not None
        assert record["error"].startswith("LintGateError:")
        assert "E301" in record["error"]
        # Distinct from a fuzz mismatch and from a timeout: the failure
        # slot stays empty and a structured record exists.
        assert record["failure"] is None
        assert record["succeeded"] is False
        assert record["verified"] == 0


class TestBindingsDbGate:
    def test_database_refuses_gate_failing_binding(self):
        binding = make_binding(
            (RangeConstraint("Len", 1, 256), ValueConstraint("df", 0))
        )

        class FakeOutcome:
            succeeded = True
            steps = 2
            failure = None

        FakeOutcome.binding = binding

        FakeOutcome.trace = None

        class FakeModule:
            __name__ = "fake_analysis"

            @staticmethod
            def run(config=None):
                assert not config.verify
                return FakeOutcome

        from repro.analyses import AnalysisSpec

        spec = AnalysisSpec(
            name="fake_analysis",
            group="extensions",
            module=FakeModule,
            field_map={"length": "Len"},
        )
        with pytest.raises(LintGateError) as excinfo:
            _binding_from(spec)
        assert any(d.code == "E301" for d in excinfo.value.diagnostics)

    def test_shipped_libraries_still_build(self):
        library = library_for("ibm370")
        assert len(library) >= 3
