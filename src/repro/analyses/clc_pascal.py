"""IBM 370 ``clc`` vs. Pascal string comparison — an extension row.

``clc`` carries the same length-code-minus-one field as ``mvc``, so the
§4.2 coding-constraint machinery discharges it the same way; the
remaining work is rotating Pascal's pre-test compare loop into clc's
do-while under the ``Len >= 1`` assertion, after which the operator's
``eq <- 1`` initialization is dead (the loop always compares at least
one byte) and vanishes — mirroring how the hardware has no Z preset.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.ibm370 import descriptions as ibm370
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="IBM 370",
    instruction="clc",
    language="Pascal",
    operation="string compare",
    operator="string.equal",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sequal
INSTRUCTION = ibm370.clc

SCENARIO = ScenarioSpec(
    operands={
        "A.Base": OperandSpec("address"),
        "B.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)



def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    # The coding constraint cancels against the built-in +1 (as in mvc).
    instruction.apply("introduce_coding_constraint", operand="len", offset=-1)
    instruction.apply(
        "combine_increments", at=instruction.stmt("len <- len - 1;")
    )
    instruction.apply("add_zero", at=instruction.expr("len + 0"))
    instruction.apply("remove_self_assign", at=instruction.stmt("len <- len;"))
    # Subtract-and-test comparison on the operator side.
    operator.apply(
        "eq_to_sub_zero", at=operator.expr("Mb[ A.Base ] = Mb[ B.Base ]")
    )
    # Length in [1, 256]; under Len >= 1 the pre-test loop rotates into
    # clc's do-while.
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
                eq <- ((Mb[ A.Base ] - Mb[ B.Base ]) = 0);
                exit_when (not eq);
                A.Base <- A.Base + 1;
                B.Base <- B.Base + 1;
                Len <- Len - 1;
            end_repeat;
            """
        ),
    )
    # The loop now always compares at least one byte: the preset dies.
    operator.apply("eliminate_dead_assignment", at=operator.stmt("eq <- 1;"))


run = bind(__name__)
