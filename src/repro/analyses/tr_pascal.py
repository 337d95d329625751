"""IBM 370 ``tr`` vs. a Pascal translate kernel — an extension row.

``tr`` is the 370's table-translate: each byte of the first operand is
replaced by the table byte it indexes.  It shares the
length-code-minus-one field with mvc/clc, so the analysis reuses the
whole §4.2 pipeline (coding constraint, [1, 256] range, loop rotation)
plus the moving-pointer absorption — with the twist that the cursor
appears in *two* nested memory expressions (`Mb[S+i]` as both the
target and the table index), which the absorption handles because both
are instances of the same ``S + i`` pattern.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.ibm370 import descriptions as ibm370
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="IBM 370",
    instruction="tr",
    language="Pascal",
    operation="string translate",
    operator="string.translate",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.translate
INSTRUCTION = ibm370.tr

SCENARIO = ScenarioSpec(
    operands={
        "S": OperandSpec("address"),
        "T": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)



def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    # The §4.2 coding-constraint pipeline, verbatim.
    instruction.apply("introduce_coding_constraint", operand="len", offset=-1)
    instruction.apply(
        "combine_increments", at=instruction.stmt("len <- len - 1;")
    )
    instruction.apply("add_zero", at=instruction.expr("len + 0"))
    instruction.apply("remove_self_assign", at=instruction.stmt("len <- len;"))
    # Count down, rotate under Len >= 1, absorb the cursor.
    operator.apply("countup_to_countdown", var="i", limit="Len")
    operator.apply("assert_operand_range", operand="Len", lo=1, hi=256)
    operator.apply(
        "derive_assertion", at=operator.stmt("assert (Len >= 1);"), value=0
    )
    operator.apply(
        "swap_statements", at=operator.stmt("assert (not (Len = 0));")
    )
    operator.apply(
        "rotate_pretest_to_posttest",
        at=operator.stmt(
            """
            repeat
                exit_when (Len = 0);
                Mb[ S + i ] <- Mb[ T + Mb[ S + i ] ];
                i <- i + 1;
                Len <- Len - 1;
            end_repeat;
            """
        ),
    )
    operator.apply("absorb_index_into_base", var="i", base="S", saved="s0")
    operator.apply("eliminate_dead_variable", at=operator.decl("s0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))


run = bind(__name__)
