"""Replayable transformation provenance.

EXTRA's whole output is a *derivation*: the sequence of transformation
steps proving an instruction equivalent to an operator.  This package
makes those derivations first-class artifacts:

* :mod:`repro.provenance.schema` — the versioned analysis-trace schema
  (both sessions' :class:`~repro.transform.TraceEvent` streams plus
  the Table 2 identity), canonical JSON, and content digests;
* :mod:`repro.provenance.store` — a content-addressed store, one
  sqlite database per root, that memoizes analysis verdicts keyed on
  what actually determines them (source descriptions, code epoch,
  engine identity, trial plan), letting ``repro batch`` skip
  transformation replay *and* verification for work it has already
  proven.

``repro trace`` prints stored or freshly recorded derivations;
``repro replay`` re-applies them with per-step digest checking, which
is the drift gate between analysis scripts and ISDL descriptions.
"""

from .schema import ANALYSIS_TRACE_SCHEMA, AnalysisTrace, canonical_json
from .replay import replay_analysis, stored_trace, trace_for
from .store import (
    DEFAULT_STORE_DIR,
    STORE_ENV_VAR,
    STORE_FILENAME,
    STORE_SCHEMA,
    TraceStore,
    code_epoch,
    verdict_key,
)

__all__ = [
    "replay_analysis",
    "stored_trace",
    "trace_for",
    "ANALYSIS_TRACE_SCHEMA",
    "AnalysisTrace",
    "canonical_json",
    "DEFAULT_STORE_DIR",
    "STORE_ENV_VAR",
    "STORE_FILENAME",
    "STORE_SCHEMA",
    "TraceStore",
    "code_epoch",
    "verdict_key",
]
