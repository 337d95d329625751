"""VAX-11 ``movc5`` vs. PC2 ``blkclr`` (block clear).

movc5 moves a source string into a destination and fills the
remainder.  Fixing the *source length* to zero removes the move phase
entirely — its opening exit is then provably true — and fixing the fill
character to zero turns the fill phase into exactly the runtime's
block-clear loop.  A textbook §2 simplification: "an exotic instruction
may be more general than a language operator … the instruction can be
simplified by fixing the values of some of its operands."
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pc2
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="movc5",
    language="PC2",
    operation="block clear",
    operator="block.clear",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pc2.blkclr
INSTRUCTION = vax11.movc5


SCENARIO = ScenarioSpec(
    operands={
        "count": OperandSpec("length"),
        "addr": OperandSpec("address"),
    }
)


def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    # The register outputs reference operands about to be fixed away.
    instruction.apply("replace_epilogue", stmts=())
    # Source length zero: the move phase exits immediately and vanishes.
    instruction.apply("fix_operand", operand="srclen", value=0)
    instruction.apply(
        "remove_immediate_exit_loop",
        at=instruction.stmt(
            """
            repeat
                exit_when (srclen = 0);
                exit_when (dstlen = 0);
                Mb[ dstaddr ] <- Mb[ srcaddr ];
                srcaddr <- srcaddr + 1;
                dstaddr <- dstaddr + 1;
                srclen <- srclen - 1;
                dstlen <- dstlen - 1;
            end_repeat;
            """
        ),
    )
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("srclen <- 0;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("srclen"))
    # The source address no longer participates at all.
    instruction.apply("fix_operand", operand="srcaddr", value=0)
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("srcaddr <- 0;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("srcaddr"))
    # Fill character zero: the fill loop becomes a clear loop.
    instruction.apply("fix_operand", operand="fill", value=0)
    instruction.apply("propagate_constant", at=instruction.expr("fill"))
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("fill <- 0;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("fill"))


run = bind(__name__)
