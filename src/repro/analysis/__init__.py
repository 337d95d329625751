"""EXTRA proper: analysis sessions, the matcher, bindings, verification.

This package is the paper's primary contribution: proving exotic
instructions equivalent to high-level language operators through
source-to-source transformation, and packaging the result (with its
constraints) for a retargetable code generator.
"""

from .binding import Binding, BindingLibrary
from .config import RunConfig
from .matcher import Matcher, MatchFailure, MatchResult
from .report import (
    AnalysisOutcome,
    canonical_report_json,
    format_table,
    full_report,
    table2_row,
)
from .runner import (
    BatchJob,
    BatchReport,
    CatalogEntry,
    JobResult,
    UnknownAnalysisError,
    run_batch,
    shard_plan,
)
from .session import AnalysisInfo, AnalysisSession
from .verify import VerificationFailure, VerificationReport, verify_binding

__all__ = [
    "Binding",
    "BindingLibrary",
    "RunConfig",
    "Matcher",
    "MatchFailure",
    "MatchResult",
    "AnalysisOutcome",
    "canonical_report_json",
    "format_table",
    "full_report",
    "table2_row",
    "BatchJob",
    "BatchReport",
    "CatalogEntry",
    "JobResult",
    "UnknownAnalysisError",
    "run_batch",
    "shard_plan",
    "AnalysisInfo",
    "AnalysisSession",
    "VerificationFailure",
    "VerificationReport",
    "verify_binding",
]
