"""The replay correctness gate: agreement passes, planted drift fails.

This is the acceptance test for ``repro replay``: every recorded
derivation must re-apply against freshly built input descriptions with
per-step digest agreement, and any drift — in the descriptions or in
the recorded trace — must be reported with a step-precise diagnostic
and a non-zero exit code.
"""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.analyses import locc_clu, scasb_rigel
from repro.analysis.runner import entry_verdict_key, resolve_names
from repro.provenance import STORE_SCHEMA, TraceStore, replay_analysis, trace_for
from repro.transform import ReplayDivergenceError


@pytest.fixture(scope="module")
def trace():
    return scasb_rigel.run(verify=False).trace


class TestApiGate:
    def test_agreeing_replay_passes(self, trace):
        replay_analysis(trace, scasb_rigel.OPERATOR(), scasb_rigel.INSTRUCTION())

    def test_every_catalog_entry_replays(self):
        import importlib

        for entry in resolve_names(None):
            module = importlib.import_module(f"repro.analyses.{entry.name}")
            outcome = module.run(verify=False)
            assert outcome.trace is not None, entry.name
            replay_analysis(
                outcome.trace, module.OPERATOR(), module.INSTRUCTION()
            )

    def test_wrong_source_description_diverges_at_step_zero(self, trace):
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_analysis(
                trace, locc_clu.OPERATOR(), scasb_rigel.INSTRUCTION()
            )
        error = excinfo.value
        assert error.step == 0
        assert error.transform == "(source description)"
        assert "diverged at step 0" in str(error)

    def test_tampered_step_digest_diverges_at_that_step(self, trace):
        events = list(trace.instruction_trace.events)
        victim = events[2]
        events[2] = dataclasses.replace(victim, digest_after="0" * 64)
        tampered = dataclasses.replace(
            trace,
            instruction_trace=dataclasses.replace(
                trace.instruction_trace, events=tuple(events)
            ),
        )
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_analysis(
                tampered, scasb_rigel.OPERATOR(), scasb_rigel.INSTRUCTION()
            )
        error = excinfo.value
        assert error.step == victim.index
        assert error.transform == victim.transform
        assert f"diverged at step {victim.index} ({victim.transform})" in str(
            error
        )

    def test_divergence_is_not_a_transform_error(self):
        from repro.transform import TransformError

        assert not issubclass(ReplayDivergenceError, TransformError)


def plant_trace(store, name, trace_payload, result=None):
    """Record a verdict for ``name`` naming ``trace_payload`` as its trace.

    The trace is its own object, written before the verdict that
    references it by digest — the layout ``repro batch`` writes.
    """
    entry = next(e for e in resolve_names([name]))
    key = entry_verdict_key(entry, "vectorized", 120, 1982, True)
    store.record_verdict(
        key,
        {
            "schema": STORE_SCHEMA,
            "key": key,
            "result": {} if result is None else result,
            "trace": store.put_object(trace_payload),
        },
    )


def plant_drift(store, name, trace, step_index=2):
    """Record a verdict whose trace lies about one step's digest."""
    payload = trace.fields()
    payload["instruction_trace"]["events"][step_index]["digest_after"] = (
        "0" * 64
    )
    plant_trace(
        store,
        name,
        payload,
        result={
            "succeeded": True,
            "steps": trace.steps,
            "failure": None,
            "verified_trials": 0,
            "shards": 1,
            "error": None,
            "timed_out": False,
        },
    )


class TestCliGate:
    def test_replay_all_fresh_passes(self, tmp_path, capsys):
        code = main(["replay", "--all", "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "20/20 derivations replayed" in out
        assert "(fresh)" in out

    def test_replay_prefers_stored_traces(self, tmp_path, trace, capsys):
        root = tmp_path / "cache"
        plant_trace(TraceStore(root), "scasb_rigel", trace.fields())
        assert main(["replay", "scasb_rigel", "--cache-dir", str(root)]) == 0
        assert "(stored)" in capsys.readouterr().out

    def test_planted_drift_fails_with_step_diagnostic(
        self, tmp_path, trace, capsys
    ):
        root = tmp_path / "cache"
        plant_drift(TraceStore(root), "scasb_rigel", trace, step_index=2)
        code = main(["replay", "scasb_rigel", "--cache-dir", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        victim = trace.instruction_trace.events[2]
        assert "FAILED scasb_rigel (stored)" in out
        assert f"diverged at step {victim.index} ({victim.transform})" in out
        assert "0/1 derivations replayed" in out

    def test_drifted_entry_does_not_mask_healthy_ones(
        self, tmp_path, trace, capsys
    ):
        root = tmp_path / "cache"
        plant_drift(TraceStore(root), "scasb_rigel", trace)
        code = main(
            ["replay", "scasb_rigel", "locc_rigel", "--cache-dir", str(root)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "ok     locc_rigel" in out
        assert "FAILED scasb_rigel" in out

    def test_replay_without_names_is_usage_error(self, capsys):
        assert main(["replay"]) == 2
        assert capsys.readouterr().err

    def test_replay_unknown_name_is_usage_error(self, capsys):
        assert main(["replay", "nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestTraceForResolution:
    def test_fresh_when_store_empty(self, tmp_path):
        got, origin = trace_for(TraceStore(tmp_path), "locc_rigel")
        assert origin == "fresh"
        assert got is not None

    def test_stored_wins(self, tmp_path, trace):
        store = TraceStore(tmp_path)
        plant_trace(store, "scasb_rigel", trace.fields())
        got, origin = trace_for(store, "scasb_rigel")
        assert origin == "stored"
        assert got.digest() == trace.digest()

    def test_corrupt_stored_trace_falls_back_to_fresh(self, tmp_path, trace):
        store = TraceStore(tmp_path)
        broken = trace.fields()
        broken["schema"] = "something/else"
        plant_trace(store, "scasb_rigel", broken)
        got, origin = trace_for(store, "scasb_rigel")
        assert origin == "fresh"
        assert got is not None


def test_trace_cli_json_round_trips(tmp_path, capsys):
    from repro.provenance import AnalysisTrace

    code = main(
        ["trace", "locc_rigel", "--format", "json", "--no-cache"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    clone = AnalysisTrace.from_dict(payload)
    assert clone.steps == payload["operator"]["events"].__len__() + len(
        payload["instruction_trace"]["events"]
    )


def test_trace_cli_text_renders_log(capsys):
    assert main(["trace", "locc_rigel", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "(fresh)" in out
    assert "step(s)" in out


def test_trace_cli_unknown_name(capsys):
    assert main(["trace", "nonsense"]) == 2
    assert "unknown analysis" in capsys.readouterr().err
