"""Human-readable reports for completed and failed analyses.

The benchmark harness uses these to print Table 2 rows and the failure
narratives of §4.3/§5; examples use them to show users what an analysis
produced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from ..constraints import UnsupportedConstraintError
from ..isdl import format_description
from .binding import Binding
from .matcher import MatchFailure

if TYPE_CHECKING:
    from ..provenance import AnalysisTrace
    from .verify import VerificationReport


def canonical_report_json(payload: Mapping[str, object]) -> str:
    """The one JSON shape every machine-readable report is printed in.

    ``repro batch --json``, ``repro bench --json``, and the cache
    benchmark all serialize through here, so their byte-identity
    contracts (same seed -> same bytes, across ``--jobs`` and engines)
    rest on a single serializer instead of three copies of the same
    ``json.dumps`` incantation.  Sorted keys, two-space indent, no
    trailing newline — callers that print add their own.
    """
    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class AnalysisOutcome:
    """One analysis attempt: a binding, or a documented failure."""

    machine: str
    instruction: str
    language: str
    operation: str
    binding: Optional[Binding] = None
    failure: Optional[str] = None
    verification: Optional[VerificationReport] = None
    #: the structured two-sided derivation (also present for failed
    #: attempts, holding the steps applied before the failure).
    trace: Optional[AnalysisTrace] = None

    @property
    def succeeded(self) -> bool:
        return self.binding is not None

    @property
    def steps(self) -> Optional[int]:
        return self.binding.steps if self.binding else None

    @property
    def log(self) -> Optional[str]:
        """The per-step text log, rendered from the structured trace."""
        return self.trace.log() if self.trace is not None else None


def table2_row(outcome: AnalysisOutcome) -> Tuple[str, str, str, str, str]:
    """One row of Table 2: machine, instruction, language, operation, steps."""
    steps = str(outcome.steps) if outcome.succeeded else "failed"
    return (
        outcome.machine,
        outcome.instruction,
        outcome.language,
        outcome.operation,
        steps,
    )


def format_table(
    rows: Sequence[Tuple[str, ...]], headers: Tuple[str, ...]
) -> str:
    """Render an aligned text table (used by every benchmark)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def full_report(outcome: AnalysisOutcome) -> str:
    """Complete narrative for one analysis."""
    title = (
        f"{outcome.machine} {outcome.instruction} vs "
        f"{outcome.language} {outcome.operation}"
    )
    lines = [title, "=" * len(title)]
    if not outcome.succeeded:
        lines.append(f"ANALYSIS FAILED: {outcome.failure}")
        return "\n".join(lines)
    binding = outcome.binding
    lines.append(binding.describe())
    if outcome.verification is not None:
        lines.append(f"verified: {outcome.verification}")
    lines.append("")
    lines.append("final augmented instruction description:")
    lines.append(format_description(binding.augmented_instruction))
    return "\n".join(lines)
