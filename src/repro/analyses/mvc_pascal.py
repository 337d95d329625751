"""IBM 370 ``mvc`` vs. Pascal string assignment — the §4.2 example.

The 370's quirk: the 8-bit length field encodes *count minus one*
("a length value of zero means that one character is to be moved").
The analysis introduces a **coding constraint** — a directive that the
compiler decrement the operator's length before loading the field — and
the compensating decrement, now part of the description, cancels
against the instruction's built-in ``+1`` iteration count.

The length is further range-constrained to [1, 256]: a zero-length
Pascal move has no mvc encoding (the wrapped field would move 256
bytes), and 256 works precisely *because* the 8-bit adjustment wraps.
Under the resulting ``Len >= 1`` assertion, Pascal's pre-test copy loop
legally rotates into mvc's post-test (do-while) form.

This was the paper's longest analysis (105 steps) and is the longest
here.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.ibm370 import descriptions as ibm370
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="IBM 370",
    instruction="mvc",
    language="Pascal",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sassign
INSTRUCTION = ibm370.mvc


SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def integrate_coding_constraint(session: AnalysisSession) -> None:
    """§4.2: offset the length operand, integrate, cancel the +1."""
    instruction = session.instruction
    instruction.apply(
        "introduce_coding_constraint", operand="len", offset=-1
    )
    instruction.apply(
        "combine_increments", at=instruction.stmt("len <- len - 1;")
    )
    instruction.apply("add_zero", at=instruction.expr("len + 0"))
    instruction.apply("remove_self_assign", at=instruction.stmt("len <- len;"))


def transform_sassign(session: AnalysisSession) -> None:
    operator = session.operator
    # mvc's operand order is (destination, source, length).
    operator.apply(
        "reorder_inputs", order=("Dst.Base", "Src.Base", "Len")
    )
    # Count the length down instead of the index up.
    operator.apply("countup_to_countdown", var="i", limit="Len")
    # The length must be in [1, 256]: no encoding moves zero bytes, and
    # 256 round-trips through the 8-bit field via the wrap.
    operator.apply("assert_operand_range", operand="Len", lo=1, hi=256)
    operator.apply(
        "derive_assertion", at=operator.stmt("assert (Len >= 1);"), value=0
    )
    operator.apply(
        "swap_statements", at=operator.stmt("assert (not (Len = 0));")
    )
    # Under 'not (Len = 0)' the pre-test loop is the post-test loop.
    operator.apply(
        "rotate_pretest_to_posttest",
        at=operator.stmt(
            """
            repeat
                exit_when (Len = 0);
                Mb[ Dst.Base + i ] <- Mb[ Src.Base + i ];
                i <- i + 1;
                Len <- Len - 1;
            end_repeat;
            """
        ),
    )
    # Moving-pointer addressing on both strings.
    operator.apply(
        "absorb_index_into_base", var="i", base="Src.Base", saved="src0"
    )
    operator.apply(
        "absorb_index_into_base", var="i", base="Dst.Base", saved="dst0"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("src0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("dst0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))


def script(session: AnalysisSession) -> None:
    integrate_coding_constraint(session)
    transform_sassign(session)


run = bind(__name__)
