"""The analysis-trace schema: serialization and content digests.

An :class:`AnalysisTrace` packages both sides of one analysis — the
operator session's trace and the instruction session's trace — with
the Table 2 identity of the analysis.  It is one record with three
views: :meth:`~AnalysisTrace.fields` (what the provenance store keeps),
:meth:`~AnalysisTrace.digest` (the SHA-256 of their canonical JSON,
which identifies the *derivation*: same descriptions, same steps, same
parameters, same digests ⇒ same trace digest) and
:meth:`~AnalysisTrace.to_dict` (the fields plus that digest, what
``repro trace --format json`` prints).  A trace records no wall time,
so two runs of the same script on machines of different speeds
produce the same record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict

from ..transform import SessionTrace

#: Version tag for the two-sided analysis trace container.
ANALYSIS_TRACE_SCHEMA = "repro.analysis-trace/1"


def canonical_json(payload: object) -> str:
    """The one JSON text a payload canonicalizes to (digest input)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


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

    def fields(self) -> Dict[str, object]:
        """The record itself: the object the provenance store keeps,
        named by its :meth:`digest`."""
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

    def digest(self) -> str:
        """Hex SHA-256 of the canonical JSON of :meth:`fields`."""
        return _digest(self.fields())

    def to_dict(self) -> Dict[str, object]:
        """:meth:`fields` plus their ``digest``."""
        payload = self.fields()
        payload["digest"] = _digest(payload)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AnalysisTrace":
        """A trace from :meth:`fields` or :meth:`to_dict`; a ``digest``
        key is ignored, since :meth:`digest` recomputes it."""
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


def _digest(fields: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()
