"""CLI exit-code contract: 0 ok, 1 findings/failures, 2 usage error.

Every subcommand follows the same mapping (documented in
``repro/__main__.py``); these tests pin it so a new subcommand cannot
silently invent its own convention.
"""

import sys

import pytest

from repro.__main__ import main
from repro.analysis import RunConfig

CLEAN_ISDL = """
demo.instruction := begin
    ** REGISTERS **
        al<7:0>
    ** EXECUTE **
        demo.execute() := begin
            input (al);
            al <- al + 1;
            output (al);
        end
end
"""

DIRTY_ISDL = CLEAN_ISDL.replace("al <- al + 1", "al <- 999")


class TestOk:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Intel 8086" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0

    def test_lint_clean_target(self, capsys):
        assert main(["lint", "i8086:scasb"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_clean_file(self, tmp_path, capsys):
        path = tmp_path / "demo.isdl"
        path.write_text(CLEAN_ISDL)
        assert main(["lint", str(path)]) == 0

    def test_analyze_success(self, capsys):
        assert main(["analyze", "scasb_rigel", "--no-verify"]) == 0

    def test_verify_success(self, capsys):
        assert main(["verify", "scasb_rigel", "--trials", "10"]) == 0
        assert "scasb_rigel" in capsys.readouterr().out

    def test_verify_accepts_both_engines(self, capsys):
        for engine in ("interp", "vectorized"):
            assert (
                main(
                    ["verify", "scasb_rigel", "--trials", "5", "--engine", engine]
                )
                == 0
            )

    def test_trace_success(self, capsys):
        assert main(["trace", "scasb_rigel", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "scasb_rigel" in out
        assert "digest=" in out

    def test_replay_success(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["replay", "scasb_rigel", "--cache-dir", cache]) == 0
        assert "1/1 derivations replayed" in capsys.readouterr().out

    def test_bench_success(self, capsys):
        import json

        from repro.semantics import ENGINE_NAMES

        assert main(["bench", "scasb_rigel", "--trials", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.bench/2"
        assert set(payload["engines"]) == set(ENGINE_NAMES)
        assert set(payload["speedups"]) == set(ENGINE_NAMES) - {"interp"}
        assert "speedup" not in payload


class TestFindings:
    def test_lint_reports_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "demo.isdl"
        path.write_text(DIRTY_ISDL)
        assert main(["lint", str(path)]) == 1
        assert "E102" in capsys.readouterr().out

    def test_lint_json_reports_diagnostics(self, tmp_path, capsys):
        import json

        path = tmp_path / "demo.isdl"
        path.write_text(DIRTY_ISDL)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        codes = {
            d["code"]
            for report in payload["reports"]
            for d in report["diagnostics"]
        }
        assert "E102" in codes

    def test_lint_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.isdl"
        path.write_text("this is not ISDL at all")
        assert main(["lint", str(path)]) == 1
        assert capsys.readouterr().err

    def test_lint_locates_a_character_that_is_not_a_decimal_digit(
        self, tmp_path, capsys
    ):
        # '\u00b2' is a digit to str.isdigit but not to int: a located
        # lex error, not a crash.
        path = tmp_path / "superscript.isdl"
        path.write_text(
            CLEAN_ISDL.replace("al <- al + 1", "al <- al + \u00b2"),
            encoding="utf-8",
        )
        assert main(["lint", str(path)]) == 1
        assert "8:24: unexpected character '\u00b2'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter reads integers of any length",
    )
    def test_lint_locates_a_number_past_the_integer_digit_limit(
        self, tmp_path, capsys
    ):
        path = tmp_path / "long_number.isdl"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text(CLEAN_ISDL.replace("al <- al + 1", f"al <- al + {digits}"))
        assert main(["lint", str(path)]) == 1
        assert "8:24: number literal of" in capsys.readouterr().err

    def test_analyze_documented_failure(self, capsys):
        assert main(["analyze", "movc3_sassign_failure", "--no-verify"]) == 1

    def test_replay_divergence(self, tmp_path, capsys):
        # A stored trace that disagrees with a fresh derivation is a
        # finding (exit 1), not a usage error.  The step-precise
        # diagnostics themselves are pinned in tests/provenance.
        from repro.analyses import scasb_rigel
        from repro.analysis.runner import entry_verdict_key, resolve_names
        from repro.provenance import STORE_SCHEMA, TraceStore

        trace = scasb_rigel.run(RunConfig(verify=False)).trace
        payload = trace.fields()
        payload["instruction_trace"]["events"][1]["digest_after"] = "0" * 64
        entry = next(iter(resolve_names(["scasb_rigel"])))
        key = entry_verdict_key(entry, "vectorized", 120, 1982, True)
        store = TraceStore(tmp_path)
        store.record_verdict(
            key,
            {
                "schema": STORE_SCHEMA,
                "key": key,
                "result": {},
                "trace": store.put_object(payload),
            },
        )
        code = main(["replay", "scasb_rigel", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "FAILED scasb_rigel" in capsys.readouterr().out


class TestUsageErrors:
    def test_lint_without_targets(self, capsys):
        assert main(["lint"]) == 2
        assert capsys.readouterr().err

    def test_lint_unknown_target(self, capsys):
        assert main(["lint", "nosuch:target"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_analyze_unknown_name(self, capsys):
        assert main(["analyze", "nosuch_analysis"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_batch_unknown_name(self, capsys):
        assert main(["batch", "nosuch_analysis"]) == 2
        assert capsys.readouterr().err

    def test_batch_unknown_engine(self, capsys):
        assert main(["batch", "scasb_rigel", "--engine", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            "unknown engine 'nosuch'; choose from: interp, vectorized"
        )

    def test_verify_unknown_engine(self, capsys):
        assert main(["verify", "scasb_rigel", "--engine", "nosuch"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_verify_retired_engine(self, capsys):
        assert main(["verify", "scasb_rigel", "--engine", "compiled"]) == 2
        assert capsys.readouterr().err.strip() == (
            "unknown engine 'compiled'; choose from: interp, vectorized"
        )

    def test_analyze_unknown_engine(self, capsys):
        assert main(["analyze", "scasb_rigel", "--engine", "nosuch"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_trace_unknown_name(self, capsys):
        assert main(["trace", "nosuch_analysis"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_replay_unknown_name(self, capsys):
        assert main(["replay", "nosuch_analysis"]) == 2
        assert "unknown analyses" in capsys.readouterr().err

    def test_replay_without_names(self, capsys):
        assert main(["replay"]) == 2
        assert capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestBadInputFailsClosed:
    """A run plan the RunConfig checks reject never reaches a verdict."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "scasb_rigel", "--trials", "-5"], "trials"),
            (["verify", "scasb_rigel", "--trials", "0"], "trials"),
            (["analyze", "scasb_rigel", "--trials", "-1"], "trials"),
            (["batch", "scasb_rigel", "--no-cache", "--jobs", "0"], "jobs"),
            (["batch", "scasb_rigel", "--no-cache", "--timeout", "0"], "timeout"),
            (["stats", "scasb_rigel", "--no-cache", "--trials", "-2"], "trials"),
        ],
    )
    def test_bad_plan_is_usage_error(self, capsys, argv, field):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""

    def test_unverified_analysis_may_run_zero_trials(self, capsys):
        assert main(["analyze", "scasb_rigel", "--no-verify", "--trials", "0"]) == 0


class TestHandlersDeclareExitCodes:
    def test_every_handler_returns_int(self):
        # The contract is structural too: main() returns whatever the
        # handler returns, so handlers must be int-returning.
        import inspect

        from repro import __main__ as cli

        handlers = [
            obj
            for name, obj in vars(cli).items()
            if name.startswith("cmd_") and inspect.isfunction(obj)
        ]
        assert len(handlers) >= 11
        for handler in handlers:
            annotation = inspect.signature(handler).return_annotation
            # PEP 563: the module uses deferred annotations, so the
            # annotation surfaces as the string "int".
            assert annotation in (int, "int"), handler.__name__
