"""Intel 8086 ``cmpsb`` vs. Pascal string comparison (``sequal``).

``repe cmpsb`` compares while equal: the simplification fixes
``rfz = 1`` (exit when the zero flag *clears*) alongside the usual
``df``/``rf`` fixes.  The augment presets ``zf`` to 1 — empty strings
compare equal — and the epilogue returns just the flag.  On the Pascal
side the two memory reads are named, both pointers slide across the
mismatch exit (their finals are dead), and each load/advance pair is
factored into an access routine mirroring ``fetchs``/``fetchd``.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="cmpsb",
    language="Pascal",
    operation="string compare",
    operator="string.equal",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sequal
INSTRUCTION = i8086.cmpsb


SCENARIO = ScenarioSpec(
    operands={
        "A.Base": OperandSpec("address"),
        "B.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def simplify_cmpsb(session: AnalysisSession) -> None:
    instruction = session.instruction
    # direction flag: low addresses to high
    instruction.apply("fix_operand", operand="df", value=0)
    for _ in range(2):  # fetchs() and fetchd()
        instruction.apply("propagate_constant", at=instruction.expr("df"))
    instruction.apply(
        "if_false",
        at=instruction.stmt("if 0 then si <- si - 1; else si <- si + 1; end_if;"),
    )
    instruction.apply(
        "if_false",
        at=instruction.stmt("if 0 then di <- di - 1; else di <- di + 1; end_if;"),
    )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("df <- 0;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("df"))
    # repeat flag
    instruction.apply("fix_operand", operand="rf", value=1)
    instruction.apply("propagate_constant", at=instruction.expr("rf"))
    instruction.apply("fold_constants", at=instruction.expr("not 1"))
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            """
            if 0 then
                if (fetchs() - fetchd()) = 0 then zf <- 1; else zf <- 0; end_if;
            else
                repeat
                    exit_when (cx = 0);
                    cx <- cx - 1;
                    if (fetchs() - fetchd()) = 0 then zf <- 1; else zf <- 0; end_if;
                    exit_when (rfz and (not zf)) or ((not rfz) and zf);
                end_repeat;
            end_if;
            """
        ),
    )
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("rf <- 1;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rf"))
    # exit-condition flag: repeat-while-EQUAL, so exit when zf clears
    instruction.apply("fix_operand", operand="rfz", value=1)
    for _ in range(2):
        instruction.apply("propagate_constant", at=instruction.expr("rfz"))
    instruction.apply("and_true", at=instruction.expr("1 and (not zf)"))
    instruction.apply("fold_constants", at=instruction.expr("not 1"))
    instruction.apply("and_false", at=instruction.expr("0 and zf"))
    instruction.apply("or_false", at=instruction.expr("(not zf) or 0"))
    instruction.apply("eliminate_dead_assignment", at=instruction.stmt("rfz <- 1;"))
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rfz"))


def augment_cmpsb(session: AnalysisSession) -> None:
    instruction = session.instruction
    instruction.apply(
        "flag_if_to_assign",
        at=instruction.stmt(
            "if (fetchs() - fetchd()) = 0 then zf <- 1; else zf <- 0; end_if;"
        ),
    )
    instruction.apply_stmts("add_prologue", "zf <- 1;", position=1)
    instruction.apply("drop_input_operand", operand="zf")
    instruction.apply_stmts("replace_epilogue", "output (zf);")
    instruction.apply("hoist_call", at=instruction.expr("fetchs()"), temp="t1")
    instruction.apply("hoist_call", at=instruction.expr("fetchd()"), temp="t2")


def transform_sequal(session: AnalysisSession) -> None:
    operator = session.operator
    operator.apply(
        "eq_to_sub_zero", at=operator.expr("Mb[ A.Base ] = Mb[ B.Base ]")
    )
    operator.apply("hoist_memread", at=operator.expr("Mb[ A.Base ]"), temp="ta")
    operator.apply("hoist_memread", at=operator.expr("Mb[ B.Base ]"), temp="tb")
    # Slide the pointer advances and the decrement across the mismatch
    # exit: their values are dead once the loop is left.
    operator.apply("move_before_exit", at=operator.stmt("A.Base <- A.Base + 1;"))
    operator.apply("move_before_exit", at=operator.stmt("B.Base <- B.Base + 1;"))
    operator.apply("move_before_exit", at=operator.stmt("Len <- Len - 1;"))
    # Bubble the decrement to the top (the 8086 counts first)...
    for pattern in (
        "B.Base <- B.Base + 1;",
        "A.Base <- A.Base + 1;",
        "eq <- ((ta - tb) = 0);",
        "tb <- Mb[ B.Base ];",
        "ta <- Mb[ A.Base ];",
    ):
        operator.apply("swap_statements", at=operator.stmt(pattern))
    # ...and pair each load with its advance.
    operator.apply("swap_statements", at=operator.stmt("eq <- ((ta - tb) = 0);"))
    operator.apply("swap_statements", at=operator.stmt("tb <- Mb[ B.Base ];"))
    operator.apply("swap_statements", at=operator.stmt("eq <- ((ta - tb) = 0);"))
    operator.apply(
        "extract_access_routine",
        at=operator.stmt("ta <- Mb[ A.Base ];"),
        routine="reada",
    )
    operator.apply(
        "extract_access_routine",
        at=operator.stmt("tb <- Mb[ B.Base ];"),
        routine="readb",
    )


def script(session: AnalysisSession) -> None:
    simplify_cmpsb(session)
    augment_cmpsb(session)
    transform_sequal(session)


run = bind(__name__)
