"""Intel 8086 ``movsb`` vs. Pascal string move (``sassign``).

The instruction side repeats the scasb simplification pattern (fix
``df`` and ``rf``, fold) and drops the register outputs a language move
has no use for.  The operator side rewrites Pascal's indexed copy
(``Mb[Dst.Base + i] <- Mb[Src.Base + i]``) into the machine's
moving-pointer form: reverse the count, absorb the index into both
pointers, and factor the source access into a routine matching
``fetch()``.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="movsb",
    language="Pascal",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sassign
INSTRUCTION = i8086.movsb


SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def simplify_movsb(session: AnalysisSession) -> None:
    """Fix df = 0 and rf = 1, drop the register outputs."""
    instruction = session.instruction
    instruction.apply("fix_operand", operand="df", value=0)
    for _ in range(3):  # fetch() plus the two destination-advance branches
        instruction.apply("propagate_constant", at=instruction.expr("df"))
    instruction.apply(
        "if_false",
        at=instruction.stmt("if 0 then si <- si - 1; else si <- si + 1; end_if;"),
    )
    for _ in range(2):
        instruction.apply(
            "if_false",
            at=instruction.stmt(
                "if 0 then di <- di - 1; else di <- di + 1; end_if;"
            ),
        )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("df <- 0;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("df"))
    instruction.apply("fix_operand", operand="rf", value=1)
    instruction.apply("propagate_constant", at=instruction.expr("rf"))
    instruction.apply("fold_constants", at=instruction.expr("not 1"))
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            """
            if 0 then
                Mb[ di ] <- fetch();
                di <- di + 1;
            else
                repeat
                    exit_when (cx = 0);
                    cx <- cx - 1;
                    Mb[ di ] <- fetch();
                    di <- di + 1;
                end_repeat;
            end_if;
            """
        ),
    )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("rf <- 1;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rf"))
    instruction.apply("replace_epilogue", stmts=())
    instruction.apply("hoist_call", at=instruction.expr("fetch()"), temp="t2")


def transform_sassign(session: AnalysisSession) -> None:
    """Indexed copy -> counted-down moving-pointer copy."""
    operator = session.operator
    operator.apply("countup_to_countdown", var="i", limit="Len")
    operator.apply(
        "absorb_index_into_base", var="i", base="Src.Base", saved="src0"
    )
    operator.apply(
        "absorb_index_into_base", var="i", base="Dst.Base", saved="dst0"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("src0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("dst0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))
    # Loop body is now: move; Dst++; Src++; Len--.  The 8086 decrements
    # its count first: bubble the decrement to the top...
    operator.apply(
        "swap_statements", at=operator.stmt("Src.Base <- Src.Base + 1;")
    )
    operator.apply(
        "swap_statements", at=operator.stmt("Dst.Base <- Dst.Base + 1;")
    )
    operator.apply(
        "swap_statements",
        at=operator.stmt("Mb[ Dst.Base ] <- Mb[ Src.Base ];"),
    )
    # ...then factor the source access into a fetch-style routine.
    operator.apply(
        "hoist_memread", at=operator.expr("Mb[ Src.Base ]"), temp="t"
    )
    operator.apply(
        "swap_statements", at=operator.stmt("Dst.Base <- Dst.Base + 1;")
    )
    operator.apply(
        "swap_statements", at=operator.stmt("Mb[ Dst.Base ] <- t;")
    )
    operator.apply(
        "extract_access_routine",
        at=operator.stmt("t <- Mb[ Src.Base ];"),
        routine="read",
    )


def script(session: AnalysisSession) -> None:
    simplify_movsb(session)
    transform_sassign(session)


run = bind(__name__)
