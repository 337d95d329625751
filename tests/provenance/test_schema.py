"""Analysis-trace schema: round-trips, digest stability, versioning."""

import dataclasses
import hashlib

import pytest

from repro.analyses import locc_rigel, movc3_sassign_failure
from repro.provenance import ANALYSIS_TRACE_SCHEMA, AnalysisTrace, canonical_json


@pytest.fixture(scope="module")
def trace():
    return locc_rigel.run(verify=False).trace


class TestRoundTrip:
    def test_to_from_dict_preserves_derivation(self, trace):
        clone = AnalysisTrace.from_dict(trace.to_dict())
        assert clone.machine == trace.machine
        assert clone.steps == trace.steps
        assert clone.log() == trace.log()
        assert clone.digest() == trace.digest()

    def test_fields_round_trip(self, trace):
        clone = AnalysisTrace.from_dict(trace.fields())
        assert clone == trace
        assert clone.fields() == trace.fields()

    def test_schema_tag_present_and_versioned(self, trace):
        payload = trace.to_dict()
        assert payload["schema"] == ANALYSIS_TRACE_SCHEMA
        assert ANALYSIS_TRACE_SCHEMA.endswith("/1")

    def test_unknown_schema_rejected(self, trace):
        payload = trace.to_dict()
        payload["schema"] = "repro.analysis-trace/999"
        with pytest.raises(ValueError, match="unsupported analysis-trace"):
            AnalysisTrace.from_dict(payload)

    def test_failed_analysis_still_exports_a_trace(self):
        outcome = movc3_sassign_failure.run(verify=False)
        assert not outcome.succeeded
        trace = outcome.trace
        assert trace is not None
        clone = AnalysisTrace.from_dict(trace.to_dict())
        assert clone.digest() == trace.digest()


class TestDigest:
    def test_digest_is_hex_sha256(self, trace):
        digest = trace.digest()
        assert len(digest) == 64
        int(digest, 16)

    def test_three_views_of_one_record(self, trace):
        fields = trace.fields()
        digest = hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()
        assert trace.digest() == digest
        assert trace.to_dict() == {**fields, "digest": digest}

    def test_a_step_records_no_wall_time(self, trace):
        events = trace.operator.to_dict()["events"]
        assert events and all("duration" not in event for event in events)

    def test_digest_sees_step_content(self, trace):
        events = list(trace.operator.events)
        events[0] = dataclasses.replace(events[0], note="tampered note")
        tampered = dataclasses.replace(
            trace,
            operator=dataclasses.replace(trace.operator, events=tuple(events)),
        )
        assert tampered.digest() != trace.digest()

    def test_fresh_runs_agree(self):
        first = locc_rigel.run(verify=False).trace
        second = locc_rigel.run(verify=False).trace
        assert first.digest() == second.digest()


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
