"""The replay correctness gate.

A stored :class:`~repro.provenance.AnalysisTrace` claims: *applying
these steps to these input descriptions produces exactly these
intermediate forms*.  :func:`replay_analysis` re-executes that claim —
both sessions' events are re-applied to freshly built input
descriptions with every recorded SHA-256 checked — so any drift
between the recorded derivation and the current ISDL descriptions or
transformation code surfaces as a
:class:`~repro.transform.ReplayDivergenceError` naming the exact step.

:func:`trace_for` resolves the trace to gate: the provenance store's
latest artifact for the analysis when one exists (checking *recorded
history* against current code), else a freshly recorded run (checking
the engine's self-consistency).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..transform import Session
from .schema import AnalysisTrace
from .store import TraceStore


def replay_analysis(
    trace: AnalysisTrace,
    operator_desc,
    instruction_desc,
) -> None:
    """Re-apply both sides of ``trace`` with per-step digest checks.

    Raises :class:`~repro.transform.ReplayDivergenceError` on the first
    step whose before/after digest disagrees with the recording, and
    :class:`~repro.transform.TransformError` if a recorded step no
    longer applies at all.
    """
    Session(operator_desc, label=trace.operator.label).replay(trace.operator)
    Session(instruction_desc, label=trace.instruction_trace.label).replay(
        trace.instruction_trace
    )


def stored_trace(
    store: Optional[TraceStore], name: str
) -> Optional[AnalysisTrace]:
    """The latest stored trace for ``name``, or None.

    The verdict artifact names its trace by object digest; a missing,
    corrupted or malformed trace object reads as no stored trace.
    """
    if store is None:
        return None
    artifact = store.latest_for(name)
    if artifact is None:
        return None
    reference = artifact.get("trace")
    if not isinstance(reference, str):
        return None
    payload = store.get_object(reference)
    if not isinstance(payload, dict):
        return None
    try:
        return AnalysisTrace.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None


def trace_for(
    store: Optional[TraceStore], name: str
) -> Tuple[Optional[AnalysisTrace], str]:
    """The trace to gate ``name`` on, and its origin.

    Returns ``(trace, "stored")`` when the provenance store has an
    artifact, ``(trace, "fresh")`` after recording a new run, or
    ``(None, "none")`` when the analysis produced no trace at all.
    """
    trace = stored_trace(store, name)
    if trace is not None:
        return trace, "stored"
    import importlib

    from ..analysis.config import RunConfig

    module = importlib.import_module(f"repro.analyses.{name}")
    outcome = module.run(RunConfig(verify=False))
    if outcome.trace is None:
        return None, "none"
    return outcome.trace, "fresh"
