"""The analysis-trace schema: serialization and content digests.

An :class:`AnalysisTrace` packages both sides of one analysis — the
operator session's trace and the instruction session's trace — with
the Table 2 identity of the analysis.  It serializes to canonical JSON
and digests to a single SHA-256 that identifies the *derivation*:
same descriptions, same steps, same parameters, same digests ⇒ same
trace digest.  Per-step wall times are observability data and are
stripped before digesting, so two runs of the same script on machines
of different speeds produce the same trace digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..transform import SessionTrace

#: Version tag for the two-sided analysis trace container.
ANALYSIS_TRACE_SCHEMA = "repro.analysis-trace/1"


def canonical_json(payload: object) -> str:
    """The one JSON text a payload canonicalizes to (digest input)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def strip_durations(payload: object) -> object:
    """A deep copy of ``payload`` with every ``duration`` key removed."""
    if isinstance(payload, dict):
        return {
            key: strip_durations(value)
            for key, value in payload.items()
            if key != "duration"
        }
    if isinstance(payload, list):
        return [strip_durations(item) for item in payload]
    return payload


@dataclass(frozen=True)
class AnalysisTrace:
    """Both sessions' derivations plus the analysis identity."""

    machine: str
    instruction: str
    language: str
    operation: str
    operator_name: str
    operator: SessionTrace
    instruction_trace: SessionTrace

    def _fields(self) -> Dict[str, object]:
        """Every field, wall times included; the digest reads them
        stripped."""
        return {
            "schema": ANALYSIS_TRACE_SCHEMA,
            "machine": self.machine,
            "instruction": self.instruction,
            "language": self.language,
            "operation": self.operation,
            "operator_name": self.operator_name,
            "operator": self.operator.to_dict(),
            "instruction_trace": self.instruction_trace.to_dict(),
        }

    def to_dict(self) -> Dict[str, object]:
        payload = self._fields()
        payload["digest"] = _digest(strip_durations(payload))
        return payload

    def to_stored_dict(self) -> Dict[str, object]:
        """``strip_durations(self.to_dict())``, the form the provenance
        store keeps, with each session's dict built and digested once."""
        payload = strip_durations(self._fields())
        payload["digest"] = _digest(payload)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AnalysisTrace":
        schema = payload.get("schema")
        if schema != ANALYSIS_TRACE_SCHEMA:
            raise ValueError(
                f"unsupported analysis-trace schema {schema!r}; "
                f"expected {ANALYSIS_TRACE_SCHEMA!r}"
            )
        return cls(
            machine=str(payload["machine"]),
            instruction=str(payload["instruction"]),
            language=str(payload["language"]),
            operation=str(payload["operation"]),
            operator_name=str(payload["operator_name"]),
            operator=SessionTrace.from_dict(payload["operator"]),
            instruction_trace=SessionTrace.from_dict(
                payload["instruction_trace"]
            ),
        )

    @property
    def steps(self) -> int:
        return self.operator.steps + self.instruction_trace.steps

    def log(self) -> str:
        """The combined per-step text log (the pre-provenance format)."""
        return "\n".join([self.operator.log(), self.instruction_trace.log()])

    def digest(self) -> str:
        return analysis_trace_digest(self)


def analysis_trace_digest(trace: AnalysisTrace) -> str:
    """Hex SHA-256 identifying the derivation (wall times excluded)."""
    return _digest(strip_durations(trace._fields()))


def _digest(fields: Dict[str, object]) -> str:
    """Hex SHA-256 of a trace's stripped fields."""
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()
