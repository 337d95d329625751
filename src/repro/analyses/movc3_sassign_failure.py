"""VAX-11 ``movc3`` vs. Pascal ``sassign`` — the §4.3 failure.

movc3 guards against operand overlap by comparing the source and
destination addresses and copying high-to-low when they could collide.
Pascal strings can never overlap, so ``sassign``'s simple low-to-high
loop *is* equivalent to movc3 — "the problem is that the descriptions
are equivalent only under this condition and EXTRA has no way to
represent it":

    (Src.Base + Src.Length <= Dst.Base) or
    (Dst.Base + Dst.Length <= Src.Base)

is a constraint over multiple operands, and EXTRA "can only deal with
simple constraints".  The attempt below therefore fails with
:class:`~repro.constraints.UnsupportedConstraintError`, exactly as the
paper reports.  The §7 extension that repairs this by declaring the
no-overlap property a *language fact* lives in
:mod:`repro.analyses.movc3_sassign_extension`.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="movc3",
    language="Pascal",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sassign
INSTRUCTION = vax11.movc3

SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    operator = session.operator
    instruction.apply("replace_epilogue", stmts=())
    # Eliminating movc3's direction branch needs the no-overlap
    # condition — a complex multi-operand constraint.  Stock EXTRA
    # cannot represent it; this raises UnsupportedConstraintError
    # (unless the session holds the matching language fact).
    session.require_no_overlap("Src", "Dst")
    instruction.apply(
        "select_forward_copy",
        at=instruction.stmt(
            """
            if (r1 < r3) then
                cnt <- r0;
                repeat
                    exit_when (cnt = 0);
                    cnt <- cnt - 1;
                    Mb[ r3 + cnt ] <- Mb[ r1 + cnt ];
                end_repeat;
                r1 <- r1 + r0;
                r3 <- r3 + r0;
                r0 <- 0;
            else
                repeat
                    exit_when (r0 = 0);
                    r0 <- r0 - 1;
                    Mb[ r3 ] <- Mb[ r1 ];
                    r1 <- r1 + 1;
                    r3 <- r3 + 1;
                end_repeat;
            end_if;
            """
        ),
        language_facts=session.language_facts,
    )
    # With the branch resolved, sassign reshapes as in the other move
    # analyses, mirroring movc3's working registers.
    operator.apply("reorder_inputs", order=("Len", "Src.Base", "Dst.Base"))
    operator.apply("copy_operand_to_register", operand="Dst.Base", new="dp")
    operator.apply("copy_operand_to_register", operand="Src.Base", new="sp")
    operator.apply("copy_operand_to_register", operand="Len", new="n")
    operator.apply("countup_to_countdown", var="i", limit="n")
    operator.apply("absorb_index_into_base", var="i", base="sp", saved="src0")
    operator.apply("absorb_index_into_base", var="i", base="dp", saved="dst0")
    operator.apply("eliminate_dead_variable", at=operator.decl("src0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("dst0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))
    # Loop body is now: move; dp++; sp++; n--.  movc3 counts first and
    # advances source before destination.
    operator.apply("swap_statements", at=operator.stmt("sp <- sp + 1;"))
    operator.apply("swap_statements", at=operator.stmt("dp <- dp + 1;"))
    operator.apply("swap_statements", at=operator.stmt("Mb[ dp ] <- Mb[ sp ];"))
    operator.apply("swap_statements", at=operator.stmt("dp <- dp + 1;"))


run = bind(__name__)
