"""VAX-11 ``movc3`` vs. PC2 ``blkcpy`` — the easiest Table 2 row.

PC2's block copy (the Berkeley Pascal runtime, written in C) follows
the same protocol movc3 implements in microcode: copy the arguments
into working locals, compare the pointers, copy backward on potential
overlap and forward otherwise.  Only cosmetic steps are needed — a
comparison swap, a few statement reorderings in the forward loop, and
dropping movc3's register outputs — which is why this row has the
smallest step count in Table 2 (21 in the paper).

This success is the flip side of §4.3: against Pascal ``sassign``
(which has no direction branch) the same instruction is *not*
analyzable — see :mod:`repro.analyses.movc3_sassign_failure`.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pc2
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="movc3",
    language="PC2",
    operation="block copy",
    operator="block.copy",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pc2.blkcpy
INSTRUCTION = vax11.movc3


#: both sides guard against overlap, so overlapping scenarios are fair
#: game for the differential check.
SCENARIO = ScenarioSpec(
    operands={
        "count": OperandSpec("length"),
        "from": OperandSpec("address"),
        "to": OperandSpec("address"),
    },
    allow_overlap=True,
)


def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    # movc3 leaves R0/R1/R3 set; a block copy has no results.
    instruction.apply("replace_epilogue", stmts=())
    # blkcpy tests 't > f' where movc3 tests 'r1 < r3'.
    instruction.apply("swap_comparison", at=instruction.expr("r1 < r3"))
    # Align the forward loop: blkcpy decrements last, movc3 first.
    operator.apply("swap_statements", at=operator.stmt("f <- f + 1;"))
    operator.apply("swap_statements", at=operator.stmt("t <- t + 1;"))
    operator.apply("swap_statements", at=operator.stmt("Mb[ t ] <- Mb[ f ];"))
    # blkcpy advances destination then source; movc3 the reverse.
    operator.apply("swap_statements", at=operator.stmt("t <- t + 1;"))


run = bind(__name__)
