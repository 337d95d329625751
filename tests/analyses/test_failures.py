"""The paper's documented failures — and the §7 extension that fixes one."""

import pytest

from repro.analyses import (
    eclipse_failure,
    movc3_sassign_extension,
    movc3_sassign_failure,
    srl_listsearch,
)
from repro.analysis import RunConfig
from repro.constraints import LanguageFact


class TestMovc3Sassign:
    def test_stock_analysis_fails_on_complex_constraint(self):
        outcome = movc3_sassign_failure.run()
        assert not outcome.succeeded
        assert "UnsupportedConstraintError" in outcome.failure
        assert "no-overlap" in outcome.failure or "multiple operands" in outcome.failure

    def test_extension_completes_and_verifies(self):
        outcome = movc3_sassign_extension.run(RunConfig(trials=60))
        assert outcome.succeeded, outcome.failure
        assert outcome.verification.trials == 60

    def test_extension_requires_the_right_fact(self, monkeypatch):
        wrong = LanguageFact("strings-are-ascii", "irrelevant fact")
        monkeypatch.setattr(movc3_sassign_extension, "LANGUAGE_FACTS", (wrong,))
        outcome = movc3_sassign_extension.run()
        assert not outcome.succeeded


class TestEclipse:
    def test_sign_encoded_direction_defeats_analysis(self):
        outcome = eclipse_failure.run()
        assert not outcome.succeeded
        assert "TransformError" in outcome.failure

    def test_failure_is_in_the_direction_test(self):
        outcome = eclipse_failure.run()
        assert "constant" in outcome.failure


class TestB4800ListSearch:
    def test_link_field_first_constraint(self):
        outcome = srl_listsearch.run(RunConfig(trials=80))
        assert outcome.succeeded, outcome.failure
        fixed = {
            c.operand: c.value for c in outcome.binding.value_constraints()
        }
        assert fixed == {"LinkOff": 0}

    def test_differentially_verified_on_linked_lists(self):
        outcome = srl_listsearch.run(RunConfig(trials=80))
        assert outcome.verification is not None
        assert outcome.verification.trials == 80
