"""Intel 8086 ``movsb`` vs. PL/1 string move.

PL/1 strings may be empty at run time, so its runtime move guards the
copy loop with ``if (Len > 0)``.  The analysis first discharges that
guard — a range assertion on the length shows the unguarded loop's own
``exit_when`` covers the empty case — and then proceeds exactly like
the Pascal analysis.  The extra bookkeeping is why this row costs more
steps than Pascal's (66 vs. 52 in the paper's Table 2).
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pl1
from ..machines.i8086 import descriptions as i8086
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind
from .movsb_pascal import simplify_movsb

INFO = AnalysisInfo(
    machine="Intel 8086",
    instruction="movsb",
    language="PL/1",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pl1.strmove
INSTRUCTION = i8086.movsb


SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def discharge_guard(session: AnalysisSession) -> None:
    """Remove PL/1's empty-string guard around the copy loop."""
    operator = session.operator
    operator.apply(
        "assert_operand_range", operand="Len", lo=0, hi=(1 << 16) - 1
    )
    operator.apply(
        "remove_redundant_guard",
        at=operator.stmt(
            """
            if (Len > 0) then
                repeat
                    exit_when (i = Len);
                    Mb[ Dst.Base + i ] <- Mb[ Src.Base + i ];
                    i <- i + 1;
                end_repeat;
            end_if;
            """
        ),
    )
    operator.apply("remove_assertion", at=operator.stmt("assert (Len >= 0);"))
    operator.apply("countup_to_countdown", var="i", limit="Len")


def transform_strmove(session: AnalysisSession) -> None:
    """Same moving-pointer rewrite as the Pascal analysis."""
    operator = session.operator
    operator.apply(
        "absorb_index_into_base", var="i", base="Src.Base", saved="src0"
    )
    operator.apply(
        "absorb_index_into_base", var="i", base="Dst.Base", saved="dst0"
    )
    operator.apply("eliminate_dead_variable", at=operator.decl("src0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("dst0"))
    operator.apply("eliminate_dead_variable", at=operator.decl("i"))
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
    discharge_guard(session)
    transform_strmove(session)


run = bind(__name__)
