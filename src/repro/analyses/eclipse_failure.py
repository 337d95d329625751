"""Data General Eclipse ``cmv`` vs. Pascal string move — the §5 failure.

The Eclipse encodes each string's processing *direction in the sign of
its length operand*: "the length operand is now used for two unrelated
purposes and it is difficult to formulate transformations to separate
the two functions.  … Instructions that use a clever coding trick make
analysis difficult or impossible" (paper §5).

A forward-only Pascal move needs the ``ac0 > 32767`` / ``ac1 > 32767``
sign tests resolved to false.  A range constraint *could* bound the
lengths to the positive half — but no transformation in the library
(nor in EXTRA's) can simplify a comparison from a range assertion:
``if_false`` demands a constant condition, constant propagation has no
constant to propagate.  The attempt below fails on exactly that guard.
"""

from __future__ import annotations

from ..analysis import AnalysisInfo, AnalysisSession
from ..languages import pascal
from ..machines.eclipse import descriptions as eclipse
from ..semantics.randomgen import OperandSpec, ScenarioSpec
from .common import bind

INFO = AnalysisInfo(
    machine="DG Eclipse",
    instruction="cmv",
    language="Pascal",
    operation="string move",
    operator="string.move",
)

#: input-description factories — the single source the runner,
#: provenance cache, and replay gate all build the originals from.
OPERATOR = pascal.sassign
INSTRUCTION = eclipse.cmv

SCENARIO = ScenarioSpec(
    operands={
        "Src.Base": OperandSpec("address"),
        "Dst.Base": OperandSpec("address"),
        "Len": OperandSpec("length"),
    }
)


def script(session: AnalysisSession) -> None:
    instruction = session.instruction
    instruction.apply("replace_epilogue", stmts=())
    # Constrain the destination length to the non-negative half so the
    # instruction would only move forward...
    instruction.apply(
        "assert_operand_range", operand="ac0", lo=0, hi=32767
    )
    # ...but no transformation can discharge the sign test from a range
    # assertion: the direction and the count live in one operand.  This
    # application fails — the condition is not a constant.
    instruction.apply(
        "if_false",
        at=instruction.stmt(
            """
            if (ac0 > 32767) then
                ac2 <- ac2 - 1;
                ac0 <- ac0 + 1;
            else
                ac2 <- ac2 + 1;
                ac0 <- ac0 - 1;
            end_if;
            """
        ),
    )


run = bind(__name__)
