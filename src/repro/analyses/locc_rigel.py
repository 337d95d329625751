"""VAX-11 ``locc`` vs. Rigel ``index``.

§2's own example: "the VAX-11 locc instruction searches a string for a
character and returns the address of the character if found … code must
be added to locc to compute the index from the address."  The epilogue
augment computes ``(r1 - temp) + 1`` (locc's R1 points *at* the located
byte; Rigel indexes are 1-based).

The interesting reconciliation is access style: Rigel's ``read()``
advances unconditionally (fetch-then-test), locc tests in place and
advances only on mismatch.  After inlining ``read()``, the pointer
increment is interchanged with the found-exit, compensating the one
post-loop read of the pointer (``swap_increment_with_exit``).
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import rigel
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="locc",
    language="Rigel",
    operation="string search",
    operator="string.index",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = rigel.index
INSTRUCTION = vax11.locc


SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Src.Length": OperandSpec("length"),
        "ch": OperandSpec("char"),
    }
)


def augment_locc(session: AnalysisSession) -> None:
    """Save the start address; compute the 1-based index or 0."""
    instruction = session.instruction
    instruction.apply("allocate_temp", temp="temp", bits=32)
    instruction.apply_stmts("add_prologue", "temp <- r1;", position=3)
    instruction.apply_stmts(
        "replace_epilogue",
        "if found then output ((r1 - temp) + 1); else output (0); end_if;",
    )


def transform_index(session: AnalysisSession) -> None:
    operator = session.operator
    # locc's operand order is (char, len, addr).
    operator.apply("reorder_inputs", order=("ch", "Src.Length", "Src.Base"))
    # Working-register copies mirroring r0 <- len; r1 <- addr.
    operator.apply(
        "copy_operand_to_register", operand="Src.Base", new="ptr"
    )
    operator.apply(
        "copy_operand_to_register", operand="Src.Length", new="cnt"
    )
    # Subtract-and-test comparison and an explicit exit flag.
    operator.apply("eq_to_sub_zero", at=operator.expr("ch = read()"))
    operator.apply(
        "materialize_exit_flag",
        at=operator.stmt("exit_when ((ch - read()) = 0);"),
        flag="found",
    )
    # Moving-pointer addressing.
    operator.apply(
        "absorb_index_into_base", var="Src.Index", base="ptr", saved="origin"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("Src.Index"))
    # Inline read(): locc reads memory directly.
    operator.apply("hoist_call", at=operator.expr("read()"), temp="tch")
    operator.apply(
        "inline_call", at=operator.stmt("tch <- read();"), temp="rv"
    )
    operator.apply(
        "retarget_assignment", at=operator.stmt("tch <- rv;")
    )
    operator.apply(
        "remove_unused_routine", at=operator.routine_decl("read")
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("rv"))
    # Re-express the post-loop discriminator through the flag.
    operator.apply(
        "exit_discriminator_to_flag",
        at=operator.stmt(
            """
            if cnt = 0 then
                output (0);
            else
                output (ptr - origin);
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
                output (ptr - origin);
            end_if;
            """
        ),
    )
    # Finish the in-place-test shape: compute the flag from Mb[ptr]
    # directly, then advance only after the found-exit.
    operator.apply("swap_statements", at=operator.stmt("ptr <- ptr + 1;"))
    operator.apply("forward_substitute", at=operator.expr("tch"))
    operator.apply("eliminate_dead_variable", at=operator.decl("tch"))
    operator.apply(
        "swap_increment_with_exit",
        at=operator.stmt("ptr <- ptr + 1;"),
        direction="after",
    )
    operator.apply("shift_sub", at=operator.expr("(ptr + 1) - origin"))


def script(session: AnalysisSession) -> None:
    augment_locc(session)
    transform_index(session)


run = bind(__name__)
