"""VAX-11 ``skpc`` vs. PL/1 ``span`` — an extension row.

``skpc`` is ``locc``'s complement: it advances *past* leading
occurrences of a character.  The matching operator is the
leading-run-length kernel behind PL/1's VERIFY builtin.  The script is
the locc recipe minus the flag work — skpc's second exit compares
directly, and the operator's cursor absorbs into the moving pointer
whose distance from the saved start *is* the result.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pl1
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="skpc",
    language="PL/1",
    operation="character span",
    operator="string.span",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pl1.span
INSTRUCTION = vax11.skpc

SCENARIO = ScenarioSpec(
    operands={
        "C": OperandSpec("char"),
        "Max": OperandSpec("length"),
        "S": OperandSpec("address"),
    }
)



def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    # Augment skpc: save the start, return the span length.
    instruction.apply("allocate_temp", temp="temp", bits=32)
    instruction.apply_stmts("add_prologue", "temp <- r1;", position=3)
    instruction.apply_stmts("replace_epilogue", "output (r1 - temp);")
    # Operator: working registers, countdown, moving pointer.
    operator.apply("copy_operand_to_register", operand="S", new="ptr")
    operator.apply("copy_operand_to_register", operand="Max", new="cnt")
    operator.apply("countup_to_countdown", var="n", limit="cnt")
    operator.apply(
        "absorb_index_into_base", var="n", base="ptr", saved="origin"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("n"))


run = bind(__name__)
