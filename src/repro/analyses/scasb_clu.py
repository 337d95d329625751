"""Intel 8086 ``scasb`` vs. CLU ``string$indexc``.

The hardest 8086 row (86 steps in the paper): CLU's cursor loop peeks
without advancing and counts *up*, while scasb's ``fetch()`` advances
unconditionally and the count runs *down*.  On top of the full scasb
simplification and augmentation, the CLU side needs the count reversed,
the cursor absorbed into a moving pointer, ``elem()`` inlined and
re-extracted as an advancing access routine, and the pointer increment
interchanged with the found-exit (compensating the epilogue's index
computation).
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import clu
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind
from .scasb_rigel import augment_scasb, simplify_scasb

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="scasb",
    language="CLU",
    operation="string search",
    operator="string.index",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = clu.indexc
INSTRUCTION = i8086.scasb


SCENARIO = ScenarioSpec(
    operands={
        "S.Base": OperandSpec("address"),
        "S.Limit": OperandSpec("length"),
        "c": OperandSpec("char"),
    }
)


def hoist_scasb_fetch(session: AnalysisSession) -> None:
    """Name the fetched character (the CLU side ends with a temp too)."""
    instruction = session.instruction
    instruction.apply("hoist_call", at=instruction.expr("fetch()"), temp="t2")


def transform_indexc(session: AnalysisSession) -> None:
    operator = session.operator
    # scasb's operand order is (address, length, character).
    operator.apply("reorder_inputs", order=("S.Base", "S.Limit", "c"))
    # Count down, subtract-and-test, explicit flag — as for locc.
    operator.apply("countup_to_countdown", var="i", limit="S.Limit")
    operator.apply("eq_to_sub_zero", at=operator.expr("c = elem()"))
    operator.apply(
        "materialize_exit_flag",
        at=operator.stmt("exit_when ((c - elem()) = 0);"),
        flag="found",
    )
    operator.apply(
        "absorb_index_into_base", var="i", base="S.Base", saved="origin"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))
    # Inline elem() down to a named memory read.
    operator.apply("hoist_call", at=operator.expr("elem()"), temp="tch")
    operator.apply("inline_call", at=operator.stmt("tch <- elem();"), temp="ev")
    operator.apply("retarget_assignment", at=operator.stmt("tch <- ev;"))
    operator.apply("remove_unused_routine", at=operator.routine_decl("elem"))
    operator.apply("eliminate_dead_variable", at=operator.decl("ev"))
    # Flag-based discriminator, then slide the count decrement up to the
    # top of the loop (scasb counts before comparing).
    operator.apply(
        "exit_discriminator_to_flag",
        at=operator.stmt(
            """
            if S.Limit = 0 then
                output (0);
            else
                output ((S.Base - origin) + 1);
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
                output ((S.Base - origin) + 1);
            end_if;
            """
        ),
    )
    operator.apply(
        "swap_statements", at=operator.stmt("S.Base <- S.Base + 1;")
    )
    operator.apply(
        "move_before_exit", at=operator.stmt("S.Limit <- S.Limit - 1;")
    )
    operator.apply(
        "swap_statements", at=operator.stmt("found <- ((c - tch) = 0);")
    )
    operator.apply("swap_statements", at=operator.stmt("tch <- Mb[ S.Base ];"))
    # scasb's fetch advances before the compare: pull the pointer bump
    # across the found-exit (compensating the epilogue) and then ahead
    # of the flag computation.
    operator.apply(
        "swap_increment_with_exit",
        at=operator.stmt("S.Base <- S.Base + 1;"),
        direction="before",
    )
    operator.apply(
        "shift_sub_neg", at=operator.expr("(S.Base - 1) - origin")
    )
    operator.apply(
        "sum_of_sub", at=operator.expr("((S.Base - origin) - 1) + 1")
    )
    operator.apply(
        "swap_statements", at=operator.stmt("found <- ((c - tch) = 0);")
    )
    # Finally re-extract the advancing access routine matching fetch().
    operator.apply(
        "extract_access_routine",
        at=operator.stmt("tch <- Mb[ S.Base ];"),
        routine="read",
    )


def script(session: AnalysisSession) -> None:
    simplify_scasb(session)
    augment_scasb(session)
    hoist_scasb_fetch(session)
    transform_indexc(session)


run = bind(__name__)
