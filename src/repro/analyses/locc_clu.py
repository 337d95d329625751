"""VAX-11 ``locc`` vs. CLU ``string$indexc``.

CLU's cursor loop peeks at elements without advancing (``elem()``) and
only then bumps the cursor — the *same* test-then-advance protocol locc
implements, so unlike the Rigel analysis no increment/exit interchange
is needed; the cursor is reversed into locc's countdown instead
(``countup_to_countdown``).  The paper's step counts agree with that
relative ease: 32 for CLU vs. 33 for Rigel.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import clu
from ..machines.vax11 import descriptions as vax11
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind
from .locc_rigel import augment_locc

INFO = AnalysisInfo(
    machine="VAX-11",
    instruction="locc",
    language="CLU",
    operation="string search",
    operator="string.index",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = clu.indexc
INSTRUCTION = vax11.locc


SCENARIO = ScenarioSpec(
    operands={
        "S.Base": OperandSpec("address"),
        "S.Limit": OperandSpec("length"),
        "c": OperandSpec("char"),
    }
)


def transform_indexc(session: AnalysisSession) -> None:
    operator = session.operator
    # CLU's operand order (c, S.Limit, S.Base) already matches locc's
    # (char, len, addr); only the working copies are needed.
    operator.apply("copy_operand_to_register", operand="S.Base", new="ptr")
    operator.apply("copy_operand_to_register", operand="S.Limit", new="cnt")
    # Reverse the cursor into the machine's countdown.
    operator.apply("countup_to_countdown", var="i", limit="cnt")
    # Subtract-and-test comparison, explicit exit flag.
    operator.apply("eq_to_sub_zero", at=operator.expr("c = elem()"))
    operator.apply(
        "materialize_exit_flag",
        at=operator.stmt("exit_when ((c - elem()) = 0);"),
        flag="found",
    )
    # Moving-pointer addressing; the cursor's standalone read in the
    # epilogue becomes (ptr - origin), matching locc's augment.
    operator.apply(
        "absorb_index_into_base", var="i", base="ptr", saved="origin"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))
    # Inline elem(): locc reads memory directly.
    operator.apply("hoist_call", at=operator.expr("elem()"), temp="tch")
    operator.apply("inline_call", at=operator.stmt("tch <- elem();"), temp="ev")
    operator.apply("retarget_assignment", at=operator.stmt("tch <- ev;"))
    operator.apply("remove_unused_routine", at=operator.routine_decl("elem"))
    operator.apply("eliminate_dead_variable", at=operator.decl("ev"))
    operator.apply("forward_substitute", at=operator.expr("tch"))
    operator.apply("eliminate_dead_variable", at=operator.decl("tch"))
    # Flag-based discriminator.
    operator.apply(
        "exit_discriminator_to_flag",
        at=operator.stmt(
            """
            if cnt = 0 then
                output (0);
            else
                output ((ptr - origin) + 1);
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
                output ((ptr - origin) + 1);
            end_if;
            """
        ),
    )


def script(session: AnalysisSession) -> None:
    augment_locc(session)
    transform_indexc(session)


run = bind(__name__)
