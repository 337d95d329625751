"""Session / engine tests: locating, logging, step counting."""

import pytest

from repro.isdl import ast, parse_description
from repro.isdl.visitor import node_at
from repro.transform import Session, TransformError


def _one_routine(body):
    """A description whose only routine runs ``body``."""
    return parse_description(
        f"""
        t.instruction := begin
            ** STATE **
                x<7:0>
            ** PROCESS **
                t.execute() := begin
                    repeat
                        {body}
                    end_repeat;
                end
        end
        """
    )


class TestLocators:
    def test_expr_skips_assignment_targets(self, search_desc):
        session = Session(search_desc)
        path = session.expr("zf")
        node = session.description
        found = node_at(node, path)
        assert found == ast.Var("zf")
        # the first zf in walk order is the target of 'zf <- 0' — the
        # locator must have skipped it.
        assert path[-1] != ("target", None)

    def test_expr_occurrence(self, search_desc):
        session = Session(search_desc)
        first = session.expr("cx", occurrence=0)
        second = session.expr("cx", occurrence=1)
        assert first != second

    def test_expr_occurrence_out_of_range(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError):
            session.expr("cx", occurrence=99)

    def test_stmt_ignores_comments(self, search_desc):
        session = Session(search_desc)
        assert session.stmt("zf <- 0;")

    def test_stmt_no_match(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError):
            session.stmt("qq <- 1;")

    def test_stmt_never_matches_another_class(self):
        session = Session(_one_routine("exit_when (x = 0);"))
        with pytest.raises(TransformError):
            session.stmt("assert (x = 0);")

    def test_commented_and_plain_statements_match_in_walk_order(self):
        session = Session(_one_routine("x <- 0;   ! note\n x <- 0;"))
        first = session.stmt("x <- 0;", occurrence=0)
        second = session.stmt("x <- 0;", occurrence=1)
        assert node_at(session.description, first).comment == "note"
        assert node_at(session.description, second).comment is None
        assert first[:-1] == second[:-1]
        assert first[-1] == ("body", 0) and second[-1] == ("body", 1)

    def test_decl_and_routine(self, search_desc):
        session = Session(search_desc)
        assert session.decl("al")
        assert session.routine_decl("fetch")
        with pytest.raises(TransformError):
            session.decl("fetch")  # routines are not register decls


class TestHistory:
    def test_steps_count_successes_only(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        with pytest.raises(TransformError):
            session.apply("fix_operand", operand="al", value=1)
        assert session.steps == 1

    def test_original_kept(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        assert session.original is search_desc
        assert session.description is not search_desc

    def test_log_mentions_transform_and_constraints(self, search_desc):
        session = Session(search_desc)
        session.apply("fix_operand", operand="al", value=1)
        log = session.log()
        assert "fix_operand" in log
        assert "constraint" in log

    def test_augment_flag_propagates(self, search_desc):
        session = Session(search_desc)
        assert not session.augmented
        session.apply("allocate_temp", temp="t9")
        assert session.augmented
        record = session.history[-1]
        assert record.is_augment


class TestFailureDiagnostics:
    """No-match and bad-occurrence errors must carry enough context to
    debug a mistyped pattern without re-reading the description."""

    def test_stmt_no_match_quotes_pattern_and_nearest_miss(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.stmt("zf <- 1;")
        message = str(excinfo.value)
        assert "no node matches the pattern" in message
        assert "'zf <- 1;'" in message
        assert "nearest miss: 'zf <- 0;'" in message

    def test_expr_no_match_quotes_pattern_and_nearest_miss(self, search_desc):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.expr("cl")
        message = str(excinfo.value)
        assert "no node matches the pattern 'cl'" in message
        assert "nearest miss:" in message

    def test_no_match_error_names_the_session(self, search_desc):
        session = Session(search_desc, label="scasb")
        with pytest.raises(TransformError, match="^scasb: "):
            session.stmt("qq <- 1;")

    def test_expr_occurrence_error_includes_pattern_and_counts(
        self, search_desc
    ):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.expr("al", occurrence=99)
        message = str(excinfo.value)
        assert "'al'" in message
        assert "occurrence 99 requested" in message
        assert "match(es)" in message

    def test_stmt_occurrence_error_includes_pattern_and_counts(
        self, search_desc
    ):
        session = Session(search_desc)
        with pytest.raises(TransformError) as excinfo:
            session.stmt("zf <- 0;", occurrence=5)
        message = str(excinfo.value)
        assert "'zf <- 0;'" in message
        assert "only 1 match(es)" in message
        assert "occurrence 5 requested" in message
