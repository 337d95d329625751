"""Intel 8086 ``stosb`` vs. PC2 ``blkclr`` — an extension row.

Not in the paper's Table 2, but squarely in its framework: ``rep
stosb`` fills memory with AL, and fixing ``al = 0`` (alongside the
usual ``df``/``rf`` fixes) turns it into exactly the runtime's
block-clear loop.  The same §2 simplification story as movc5/blkclr,
on the other machine.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pc2
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="stosb",
    language="PC2",
    operation="block clear",
    operator="block.clear",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pc2.blkclr
INSTRUCTION = i8086.stosb

SCENARIO = ScenarioSpec(
    operands={
        "count": OperandSpec("length"),
        "addr": OperandSpec("address"),
    }
)



def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    # The register results are of no use to a block clear.
    instruction.apply("replace_epilogue", stmts=())
    # direction flag: low addresses to high.
    instruction.apply("fix_operand", operand="df", value=0)
    for _ in range(2):
        instruction.apply("propagate_constant", at=instruction.expr("df"))
    for _ in range(2):
        instruction.apply(
            "if_false",
            at=instruction.stmt(
                "if 0 then di <- di - 1; else di <- di + 1; end_if;"
            ),
        )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("df <- 0;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("df"))
    # repeat flag.
    instruction.apply("fix_operand", operand="rf", value=1)
    instruction.apply("propagate_constant", at=instruction.expr("rf"))
    instruction.apply("fold_constants", at=instruction.expr("not 1"))
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            """
            if 0 then
                Mb[ di ] <- al;
                di <- di + 1;
            else
                repeat
                    exit_when (cx = 0);
                    cx <- cx - 1;
                    Mb[ di ] <- al;
                    di <- di + 1;
                end_repeat;
            end_if;
            """
        ),
    )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("rf <- 1;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rf"))
    # fill character zero: the store loop becomes a clear loop.
    instruction.apply("fix_operand", operand="al", value=0)
    instruction.apply("propagate_constant", at=instruction.expr("al"))
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("al <- 0;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("al"))
    # stosb's remaining operands are (cx, di); blkclr's are (count, addr)
    # in the same roles — but blkclr clears then advances, where stosb
    # counts down first: align the loop bodies.
    operator.apply("reorder_inputs", order=("count", "addr"))
    operator.apply(
        "swap_statements", at=operator.stmt("addr <- addr + 1;")
    )
    operator.apply(
        "swap_statements", at=operator.stmt("Mb[ addr ] <- 0;")
    )


run = bind(__name__)
