"""VAX-11 ``cmpc3`` vs. Pascal string comparison (``sequal``).

cmpc3 compares two strings and leaves the Z condition code set when
they are equal — including the vacuous equality of empty strings, which
the instruction's own ``z <- 1`` initialization covers (no prologue
augment needed, unlike cmpsb).  The operator side only needs working
registers mirroring R0/R1/R3, the subtract-and-test comparison shape,
and cmpc3's operand order; the epilogue augment discards the register
results and returns just the flag.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="cmpc3",
    language="Pascal",
    operation="string compare",
    operator="string.equal",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sequal
INSTRUCTION = vax11.cmpc3


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
    # A comparison's result is the flag; drop the register outputs.
    instruction.apply_stmts("replace_epilogue", "output (z);")
    # cmpc3's operand order is (len, addr1, addr2).
    operator.apply("reorder_inputs", order=("Len", "A.Base", "B.Base"))
    # Working registers mirroring r0 <- len; r1 <- addr1; r3 <- addr2.
    operator.apply("copy_operand_to_register", operand="B.Base", new="p2")
    operator.apply("copy_operand_to_register", operand="A.Base", new="p1")
    operator.apply("copy_operand_to_register", operand="Len", new="cnt")
    # Subtract-and-test comparison.
    operator.apply(
        "eq_to_sub_zero", at=operator.expr("Mb[ p1 ] = Mb[ p2 ]")
    )


run = bind(__name__)
