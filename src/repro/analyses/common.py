"""Shared driver for the recorded analysis scripts.

Each analysis module defines ``INFO`` (the Table 2 row), ``OPERATOR``
and ``INSTRUCTION`` (the input-description factories), ``SCENARIO``
(the differential-testing recipe), and a ``script(session)`` function
that applies the transformation sequence; the declarative registry in
:mod:`repro.analyses` carries the per-row metadata (paper step counts,
codegen field maps).  :func:`run_analysis` plays the script, matches,
verifies, and wraps everything — including the structured two-sided
:class:`~repro.provenance.AnalysisTrace` — in an
:class:`~repro.analysis.report.AnalysisOutcome`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..analysis import (
    AnalysisInfo,
    AnalysisOutcome,
    AnalysisSession,
    MatchFailure,
    RunConfig,
)
from ..constraints import LanguageFact, UnsupportedConstraintError
from ..isdl import ast
from ..semantics.randomgen import ScenarioSpec
from ..transform import TransformError

if TYPE_CHECKING:
    from ..semantics.engine import ExecutionEngine


def run_analysis(
    info: AnalysisInfo,
    operator_desc: ast.Description,
    instruction_desc: ast.Description,
    script: Callable[[AnalysisSession], None],
    scenario: Optional[ScenarioSpec] = None,
    verify: bool = True,
    trials: int = 120,
    language_facts: Sequence[LanguageFact] = (),
    engine: Optional[ExecutionEngine] = None,
) -> AnalysisOutcome:
    """Play one analysis script end to end.

    Failures of the kinds the paper documents (an unsupported complex
    constraint, a transformation whose guard refuses, a match failure)
    are captured in the outcome rather than raised; anything else is a
    bug in this reproduction and propagates.
    """
    session = AnalysisSession(
        info, operator_desc, instruction_desc, language_facts=language_facts
    )
    try:
        script(session)
        binding = session.finish()
    except (UnsupportedConstraintError, TransformError, MatchFailure) as error:
        return AnalysisOutcome(
            machine=info.machine,
            instruction=info.instruction,
            language=info.language,
            operation=info.operation,
            failure=f"{type(error).__name__}: {error}",
            trace=session.trace(),
        )
    verification = None
    if verify and scenario is not None:
        from ..analysis.verify import verify_binding

        verification = verify_binding(
            binding, scenario, config=RunConfig(trials=trials, engine=engine)
        )
    return AnalysisOutcome(
        machine=info.machine,
        instruction=info.instruction,
        language=info.language,
        operation=info.operation,
        binding=binding,
        verification=verification,
        trace=session.trace(),
    )
