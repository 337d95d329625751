"""EXTRA — Exotic Instruction Transformational Analysis System.

A full reproduction of Morgan & Rowe, *Analyzing Exotic Instructions
for a Retargetable Code Generator* (SIGPLAN Symposium on Compiler
Construction, 1982), as a Python library:

* :mod:`repro.isdl` — the ISPS-like description language,
* :mod:`repro.semantics` — executable semantics for descriptions,
* :mod:`repro.dataflow` — the analyses behind transformation guards,
* :mod:`repro.transform` — the transformation library and engine,
* :mod:`repro.analysis` — EXTRA proper: sessions, matcher, bindings,
  differential verification,
* :mod:`repro.machines` / :mod:`repro.languages` — instruction and
  operator descriptions, the Table 1 catalog, target simulators,
* :mod:`repro.analyses` — recorded scripts for every Table 2 row,
  the documented failures, and the §7 extension,
* :mod:`repro.codegen` — the retargetable code generator consuming the
  bindings (§6), with the constraint-satisfaction rewriting rules and
  optimizations.

The typed facade (:mod:`repro.api`) and the most used names of
:mod:`repro.analysis`, :mod:`repro.constraints` and :mod:`repro.isdl`
are re-exported here, each imported the first time it is read
(:mod:`repro.exports`): ``import repro`` loads nothing else, so a
command loads only the code it runs.

Quick start::

    from repro.analyses import scasb_rigel
    outcome = scasb_rigel.run()
    print(outcome.binding.describe())

    from repro.codegen import target_for, ir
    target = target_for("i8086")
    asm = target.compile((ir.StringIndex(
        result="idx", base=ir.Param("s", 0, 65535),
        length=ir.Param("n", 0, 65535), char=ir.Param("c", 0, 255)),))
    print(asm.listing())
"""

from .exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".": ("api", "constraints", "obs"),
    ".analysis": (
        "AnalysisInfo",
        "AnalysisOutcome",
        "AnalysisSession",
        "Binding",
        "BindingLibrary",
        "MatchFailure",
        "RunConfig",
        "VerificationFailure",
        "verify_binding",
    ),
    ".api": ("analyze", "batch", "replay", "stats", "trace", "verify"),
    ".constraints": (
        "ComplexConstraint",
        "LanguageFact",
        "OffsetConstraint",
        "RangeConstraint",
        "UnsupportedConstraintError",
        "ValueConstraint",
    ),
    ".isdl": ("format_description", "parse_description"),
})
__all__.append("__version__")
