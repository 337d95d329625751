"""Reporting-layer tests."""

from repro.analysis import AnalysisOutcome, RunConfig, format_table, full_report, table2_row
from repro.analysis.verify import VerificationReport


def make_outcome(**overrides):
    defaults = dict(
        machine="Intel 8086",
        instruction="scasb",
        language="Rigel",
        operation="string search",
    )
    defaults.update(overrides)
    return AnalysisOutcome(**defaults)


class TestTableFormatting:
    def test_alignment(self):
        rows = [("a", "bbbb"), ("cc", "d")]
        text = format_table(rows, ("H1", "H2"))
        lines = text.splitlines()
        assert lines[0].startswith("H1")
        assert set(lines[1]) <= {"-", " "}
        # Columns align: 'bbbb' and 'd' start at the same offset.
        assert lines[2].index("bbbb") == lines[3].index("d")

    def test_wide_headers(self):
        text = format_table([("x", "y")], ("Wide Header One", "Two"))
        assert "Wide Header One" in text

    def test_empty_rows(self):
        text = format_table([], ("A", "B"))
        assert "A" in text


class TestOutcomeViews:
    def test_failed_outcome(self):
        outcome = make_outcome(failure="TransformError: nope")
        assert not outcome.succeeded
        assert outcome.steps is None
        row = table2_row(outcome)
        assert row[-1] == "failed"
        report = full_report(outcome)
        assert "ANALYSIS FAILED" in report
        assert "nope" in report

    def test_successful_outcome_report(self):
        from repro.analyses import movc3_pc2

        outcome = movc3_pc2.run(RunConfig(verify=False))
        report = full_report(outcome)
        assert "binding:" in report
        assert "movc3.instruction := begin" in report
        assert str(outcome.steps) in table2_row(outcome)

    def test_verification_shown(self):
        from repro.analyses import movc3_pc2

        outcome = movc3_pc2.run(RunConfig(trials=20))
        report = full_report(outcome)
        assert "verified:" in report
        assert "20 randomized states" in str(outcome.verification)

    def test_log_attached(self):
        from repro.analyses import movc3_pc2

        outcome = movc3_pc2.run(RunConfig(verify=False))
        assert outcome.log is not None
        assert "swap_comparison" in outcome.log


class TestTraceBackedLog:
    def test_log_renders_from_structured_trace(self):
        from repro.analyses import locc_rigel

        outcome = locc_rigel.run(RunConfig(verify=False))
        assert outcome.trace is not None
        assert outcome.log == outcome.trace.log()

    def test_log_survives_serialization_round_trip(self):
        from repro.analyses import locc_rigel
        from repro.provenance import AnalysisTrace

        trace = locc_rigel.run(RunConfig(verify=False)).trace
        clone = AnalysisTrace.from_dict(trace.to_dict())
        assert clone.log() == trace.log()

    def test_failed_outcome_keeps_partial_trace_log(self):
        from repro.analyses import movc3_sassign_failure

        outcome = movc3_sassign_failure.run(RunConfig(verify=False))
        assert not outcome.succeeded
        assert outcome.trace is not None
        assert outcome.log is not None
        assert outcome.log == outcome.trace.log()

    def test_traceless_outcome_has_no_log(self):
        outcome = make_outcome(failure="MatchFailure: shape")
        assert outcome.trace is None
        assert outcome.log is None


class TestTable2Edges:
    def test_row_shape_and_order(self):
        outcome = make_outcome(failure="x")
        row = table2_row(outcome)
        assert row == (
            "Intel 8086",
            "scasb",
            "Rigel",
            "string search",
            "failed",
        )

    def test_rows_with_mixed_outcomes_align(self):
        from repro.analyses import movc3_pc2

        ok = movc3_pc2.run(RunConfig(verify=False))
        bad = make_outcome(failure="TransformError: nope")
        text = format_table(
            [table2_row(ok), table2_row(bad)],
            ("Machine", "Instr", "Language", "Operation", "Steps"),
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[2].index("VAX") == lines[3].index("Intel")

    def test_single_column_table(self):
        text = format_table([("only",)], ("Col",))
        assert text.splitlines() == ["Col ", "----", "only"]
