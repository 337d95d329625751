"""The full EXTRA analysis session.

An :class:`AnalysisSession` pairs two transformation sessions — one over
the language-operator description, one over the exotic-instruction
description — exactly as EXTRA "takes a description of a high-level
language operator and a description of an exotic instruction [and] the
descriptions are transformed until they are equivalent" (§1).

Flow:

1. the analysis script applies transformation steps on either side
   (``session.operator`` / ``session.instruction``),
2. :meth:`finish` runs the matcher, merges the constraints every step
   emitted with the range constraints the final binding produces, and
   returns a :class:`~repro.analysis.binding.Binding`,
3. callers usually follow with
   :func:`~repro.analysis.verify.verify_binding` for the differential
   check.

Language facts (the §7 extension) are held by the session and passed to
constraint transformations that ask for them, so a stock session still
fails on the movc3/sassign overlap exactly as the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .. import obs
from ..constraints import LanguageFact
from ..isdl import ast
from .binding import Binding
from .matcher import Matcher

if TYPE_CHECKING:
    from ..provenance import AnalysisTrace


@dataclass(frozen=True)
class AnalysisInfo:
    """Metadata identifying one Table 2 row."""

    machine: str
    instruction: str
    language: str
    operation: str
    operator: str  # intermediate-language operator name


class AnalysisSession:
    """Transform an operator and an instruction into a common form."""

    def __init__(
        self,
        info: AnalysisInfo,
        operator_desc: ast.Description,
        instruction_desc: ast.Description,
        language_facts: Sequence[LanguageFact] = (),
    ):
        from ..transform import Session

        self.info = info
        self.operator = Session(operator_desc, label=f"{info.language}:{info.operation}")
        self.instruction = Session(
            instruction_desc, label=f"{info.machine}:{info.instruction}"
        )
        self.language_facts: Tuple[LanguageFact, ...] = tuple(language_facts)
        self._binding: Optional[Binding] = None

    @property
    def steps(self) -> int:
        """Total transformation steps across both descriptions."""
        return self.operator.steps + self.instruction.steps

    def require_no_overlap(self, src: str, dst: str) -> None:
        """Apply the no-overlap constraint (§4.3) with the session's facts."""
        self.operator.apply(
            "require_no_overlap",
            src=src,
            dst=dst,
            language_facts=self.language_facts,
        )

    def finish(self) -> Binding:
        """Run the matcher and assemble the binding.

        Width-derived range constraints from the matcher are dropped for
        operands the analysis script constrained explicitly: a scripted
        constraint encodes semantic knowledge (e.g. mvc's length lies in
        [1, 256] *because the encoding wraps correctly*) that supersedes
        the raw register-width default.
        """
        from ..constraints import RangeConstraint

        with obs.span("match", operation=self.info.operation):
            matcher = Matcher(
                self.operator.description, self.instruction.description
            )
            result = matcher.match()
        obs.inc("repro_analysis_steps_total", self.steps)
        scripted = tuple(self.operator.constraints) + tuple(
            self.instruction.constraints
        )
        scripted_ranges = {
            constraint.operand
            for constraint in scripted
            if isinstance(constraint, RangeConstraint)
        }
        matcher_constraints = tuple(
            constraint
            for constraint in result.constraints
            if constraint.operand not in scripted_ranges
        )
        constraints = scripted + matcher_constraints
        result_registers = self._collect_result_registers(result)
        self._binding = Binding(
            operator=self.info.operator,
            language=self.info.language,
            machine=self.info.machine,
            instruction=self.info.instruction,
            operation=self.info.operation,
            steps=self.steps,
            operand_map=result.operand_map,
            constraints=constraints,
            augmented_instruction=self.instruction.description,
            final_operator=self.operator.description,
            augmented=self.instruction.augmented or self.operator.augmented,
            result_registers=result_registers,
        )
        return self._binding

    def _collect_result_registers(self, match_result) -> Tuple[str, ...]:
        """Instruction registers holding outputs, when outputs are registers."""
        registers = []
        entry = self.instruction.description.entry_routine()

        def scan(stmts):
            for stmt in stmts:
                if isinstance(stmt, ast.Output):
                    for expr in stmt.exprs:
                        if isinstance(expr, ast.Var) and expr.name not in registers:
                            registers.append(expr.name)
                elif isinstance(stmt, ast.If):
                    scan(stmt.then)
                    scan(stmt.els)
                elif isinstance(stmt, ast.Repeat):
                    scan(stmt.body)

        scan(entry.body)
        return tuple(registers)

    @property
    def binding(self) -> Binding:
        if self._binding is None:
            raise RuntimeError("analysis not finished; call finish() first")
        return self._binding

    def trace(self) -> AnalysisTrace:
        """Both sides' derivations as one serializable provenance artifact.

        Valid at any point of the analysis — a failed script exports the
        steps it managed to apply, which is exactly what the failure
        narratives print.
        """
        from ..provenance import AnalysisTrace

        return AnalysisTrace(
            machine=self.info.machine,
            instruction=self.info.instruction,
            language=self.info.language,
            operation=self.info.operation,
            operator_name=self.info.operator,
            operator=self.operator.trace(),
            instruction_trace=self.instruction.trace(),
        )
