"""Burroughs B4800 ``mva`` vs. Pascal string assignment — footnote 5.

"This type of encoding is not unique to the IBM 370, but also occurs on
at least one other machine (the Burroughs B4800)" (paper §4.2,
footnote 5).  The B4800's move-alphanumeric carries the same
length-code-minus-one field as mvc, and the *same analysis script
shape* discharges it: introduce the coding constraint, cancel it
against the built-in ``+1``, range-constrain the length to [1, 256],
and rotate Pascal's pre-test loop under the resulting assertion.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.b4800 import descriptions as b4800
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind
from .mvc_pascal import transform_sassign

INFO = AnalysisInfo(
    machine="Burroughs B4800",
    instruction="mva",
    language="Pascal",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sassign
INSTRUCTION = b4800.mva

SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)



def integrate_coding_constraint(session: AnalysisSession) -> None:
    """The same §4.2 mechanism, on the other machine's field."""
    instruction = session.instruction
    instruction.apply("introduce_coding_constraint", operand="len", offset=-1)
    instruction.apply(
        "combine_increments", at=instruction.stmt("len <- len - 1;")
    )
    instruction.apply("add_zero", at=instruction.expr("len + 0"))
    instruction.apply("remove_self_assign", at=instruction.stmt("len <- len;"))


def script(session: AnalysisSession) -> None:
    integrate_coding_constraint(session)
    transform_sassign(session)


run = bind(__name__)
