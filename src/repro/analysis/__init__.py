"""EXTRA proper: analysis sessions, the matcher, bindings, verification.

This package is the paper's primary contribution: proving exotic
instructions equivalent to high-level language operators through
source-to-source transformation, and packaging the result (with its
constraints) for a retargetable code generator.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".binding": ("Binding", "BindingLibrary"),
    ".config": ("RunConfig", "UnknownAnalysisError"),
    ".matcher": ("Matcher", "MatchFailure", "MatchResult"),
    ".report": (
        "AnalysisOutcome",
        "canonical_report_json",
        "format_table",
        "full_report",
        "table2_row",
    ),
    ".runner": (
        "BatchJob",
        "BatchReport",
        "CatalogEntry",
        "JobResult",
        "run_batch",
        "shard_plan",
    ),
    ".session": ("AnalysisInfo", "AnalysisSession"),
    ".verify": ("VerificationFailure", "VerificationReport", "verify_binding"),
})
