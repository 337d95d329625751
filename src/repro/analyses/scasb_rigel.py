"""Intel 8086 ``scasb`` vs. Rigel ``index`` — the paper's §4.1 example.

The script reproduces the published analysis phase by phase:

1. *Simplify* scasb by fixing its flag operands (``df = 0``: scan low
   to high; ``rf = 1``: always repeat; ``rfz = 0``: stop on match) and
   constant-folding the consequences — figure 3 becomes figure 4.
2. *Augment*: save the initial string pointer in a new 16-bit
   temporary, preset ``zf`` to 0 (otherwise a zero-length string leaves
   it unusable), and replace the epilogue with code that returns the
   character's index or 0 — figure 4 becomes figure 5.
3. *Transform Rigel's index into the same shape*: subtract-and-test
   comparison, an explicit exit flag, moving-pointer addressing instead
   of base-plus-index, the flag as the post-loop discriminator, and the
   machine's decrement placement.

The matcher then binds ``Src.Base``/``Src.Length``/``ch`` to
``di``/``cx``/``al``, emitting the 16-bit string-length constraint the
paper highlights.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import rigel
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="scasb",
    language="Rigel",
    operation="string search",
    operator="string.index",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = rigel.index
INSTRUCTION = i8086.scasb


SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Src.Length": OperandSpec("length"),
        "ch": OperandSpec("char"),
    }
)


def simplify_scasb(session: AnalysisSession) -> None:
    """Figure 3 -> figure 4: fix df/rf/rfz and fold the consequences."""
    instruction = session.instruction
    # direction flag: always scan from low addresses to high
    instruction.apply("fix_operand", operand="df", value=0)
    instruction.apply("propagate_constant", at=instruction.expr("df"))
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            "if 0 then di <- di - 1; else di <- di + 1; end_if;"
        ),
    )
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("df <- 0;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("df"))
    # repeat flag: the instruction always loops
    instruction.apply("fix_operand", operand="rf", value=1)
    instruction.apply("propagate_constant", at=instruction.expr("rf"))
    instruction.apply("fold_constants", at=instruction.expr("not 1"))
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            """
            if 0 then
                if (al - fetch()) = 0 then zf <- 1; else zf <- 0; end_if;
            else
                repeat
                    exit_when (cx = 0);
                    cx <- cx - 1;
                    if (al - fetch()) = 0 then zf <- 1; else zf <- 0; end_if;
                    exit_when (rfz and (not zf)) or ((not rfz) and zf);
                end_repeat;
            end_if;
            """
        ),
    )
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("rf <- 1;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rf"))
    # exit-condition flag: terminate when the character is found
    instruction.apply("fix_operand", operand="rfz", value=0)
    instruction.apply("propagate_constant", at=instruction.expr("rfz"))
    instruction.apply("propagate_constant", at=instruction.expr("rfz"))
    instruction.apply("and_false", at=instruction.expr("0 and (not zf)"))
    instruction.apply("fold_constants", at=instruction.expr("not 0"))
    instruction.apply("and_true", at=instruction.expr("1 and zf"))
    instruction.apply("or_false", at=instruction.expr("0 or zf"))
    instruction.apply(
        "eliminate_dead_assignment", at=instruction.stmt("rfz <- 0;")
    )
    instruction.apply("eliminate_dead_variable", at=instruction.decl("rfz"))


def augment_scasb(session: AnalysisSession) -> None:
    """Figure 4 -> figure 5: temp, zf preset, index-computing epilogue."""
    instruction = session.instruction
    instruction.apply(
        "flag_if_to_assign",
        at=instruction.stmt(
            "if (al - fetch()) = 0 then zf <- 1; else zf <- 0; end_if;"
        ),
    )
    instruction.apply("allocate_temp", temp="temp", bits=16)
    instruction.apply_stmts("add_prologue", "temp <- di;", position=1)
    instruction.apply_stmts("add_prologue", "zf <- 0;", position=2)
    instruction.apply("drop_input_operand", operand="zf")
    instruction.apply_stmts(
        "replace_epilogue",
        "if zf then output (di - temp); else output (0); end_if;",
    )


def transform_index(session: AnalysisSession) -> None:
    """Bring Rigel's index into scasb's common form."""
    operator = session.operator
    operator.apply("eq_to_sub_zero", at=operator.expr("ch = read()"))
    operator.apply(
        "materialize_exit_flag",
        at=operator.stmt("exit_when ((ch - read()) = 0);"),
        flag="found",
    )
    operator.apply(
        "absorb_index_into_base",
        var="Src.Index",
        base="Src.Base",
        saved="origin",
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("Src.Index"))
    operator.apply(
        "exit_discriminator_to_flag",
        at=operator.stmt(
            """
            if Src.Length = 0 then
                output (0);
            else
                output (Src.Base - origin);
            end_if;
            """
        ),
    )
    operator.apply(
        "reverse_conditional",
        at=operator.stmt(
            """
            if not found then
                output (0);
            else
                output (Src.Base - origin);
            end_if;
            """
        ),
    )
    operator.apply(
        "move_before_exit",
        at=operator.stmt("Src.Length <- Src.Length - 1;"),
    )
    operator.apply(
        "swap_statements",
        at=operator.stmt("found <- ((ch - read()) = 0);"),
    )


def script(session: AnalysisSession) -> None:
    simplify_scasb(session)
    augment_scasb(session)
    transform_index(session)


run = bind(__name__)
