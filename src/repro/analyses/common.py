"""One function runs every recorded analysis script.

An analysis module is data plus a script: ``INFO`` (the Table 2 row),
``OPERATOR`` and ``INSTRUCTION`` (the input-description factories),
optional ``LANGUAGE_FACTS`` (the §7 facts its session holds),
``SCENARIO`` (the differential-testing recipe) and a
``script(session)`` function that applies the transformation
sequence; the declarative registry in :mod:`repro.analyses` carries
the per-row metadata (paper step counts, codegen field maps).  Its
``run(config=None)`` is :func:`run_analysis` bound to it by
:func:`bind`: it plays the script, matches, verifies on the
whole :class:`~repro.analysis.RunConfig`, and wraps everything —
including the structured two-sided
:class:`~repro.provenance.AnalysisTrace` — in an
:class:`~repro.analysis.report.AnalysisOutcome`.

Loading this module loads no transformation library: the session and
the library load with the first script played.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, Optional

from ..analysis import AnalysisOutcome, AnalysisSession, MatchFailure, RunConfig
from ..constraints import UnsupportedConstraintError


def run_analysis(
    module: ModuleType, config: Optional[RunConfig] = None
) -> AnalysisOutcome:
    """Play analysis ``module``'s script end to end under ``config``.

    With ``config.verify`` set, the binding is verified on the whole
    plan (trials, seed, engine, symbolic): through
    :func:`~repro.analysis.verify.verify_binding` on the module's
    ``SCENARIO``, or, for the one entry whose states are not a
    :class:`~repro.semantics.randomgen.ScenarioSpec`
    (srl_listsearch), through its own ``verify_list_binding``.

    Failures of the kinds the paper documents (an unsupported complex
    constraint, a transformation whose guard refuses, a match failure)
    are captured in the outcome rather than raised; anything else is a
    bug in this reproduction and propagates.
    """
    from ..transform import TransformError

    cfg = config if config is not None else RunConfig()
    info = module.INFO
    session = AnalysisSession(
        info,
        module.OPERATOR(),
        module.INSTRUCTION(),
        language_facts=getattr(module, "LANGUAGE_FACTS", ()),
    )
    try:
        module.script(session)
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
    if cfg.verify:
        scenario = getattr(module, "SCENARIO", None)
        if scenario is None:
            verification = module.verify_list_binding(binding, cfg)
        else:
            from ..analysis.verify import verify_binding

            verification = verify_binding(binding, scenario, config=cfg)
    return AnalysisOutcome(
        machine=info.machine,
        instruction=info.instruction,
        language=info.language,
        operation=info.operation,
        binding=binding,
        verification=verification,
        trace=session.trace(),
    )


def bind(name: str) -> Callable[..., AnalysisOutcome]:
    """Analysis module ``name``'s ``run(config=None)``: :func:`run_analysis` on it.

    Each module binds it as ``run = bind(__name__)``; the module is
    looked up when ``run`` is called, so a fact or scenario patched on
    it is what :func:`run_analysis` reads.
    """

    def run(config: Optional[RunConfig] = None) -> AnalysisOutcome:
        return run_analysis(sys.modules[name], config)

    run.__module__, run.__qualname__ = name, "run"
    return run
