#!/usr/bin/env python3
"""Analyzing a *new* exotic instruction with the EXTRA library.

The system's purpose is retargeting: when a compiler meets a new
machine, its exotic instructions must be analyzed against the
languages' operators.  This example plays machine-description author:
it defines a fictional "Z900" machine whose ``skipnz`` instruction
scans memory for the first zero byte (a C-string length primitive),
writes an ISDL description for it and for a bounded ``strlen`` language
operator, drives an analysis session step by step, and differentially
verifies the resulting binding on 300 randomized machine states.

    python examples/analyze_new_instruction.py
"""

from repro.analysis import (
    AnalysisInfo,
    AnalysisSession,
    RunConfig,
    verify_binding,
)
from repro.isdl import format_description, parse_description
from repro.semantics.randomgen import OperandSpec, ScenarioSpec

# The machine instruction: scan until a zero byte, leaving the pointer
# on the terminator, the remaining window, and a hit flag.
SKIPNZ_TEXT = """
skipnz.instruction := begin
    ** OPERANDS **
        p<23:0>,                        ! scan pointer
        w<15:0>                         ! window length
    ** STATE **
        hit<>                           ! terminator found
    ** SCAN.PROCESS **
        skipnz.execute() := begin
            input (p, w);
            hit <- 0;
            repeat
                exit_when (w = 0);
                hit <- (Mb[ p ] = 0);
                exit_when (hit);
                p <- p + 1;
                w <- w - 1;
            end_repeat;
            output (hit, p, w);
        end
end
"""

# The language operator: a bounded C-style strlen.  The runtime routine
# keeps the base address in a local and returns scanned - base, or 0
# when no terminator fits the buffer.
STRLEN_TEXT = """
strlen.operation := begin
    ** ARGUMENTS **
        S: integer,                     ! string base address
        Max: integer                    ! buffer size bound
    ** LOCALS **
        start: integer,                 ! saved base address
        z<>                             ! terminator seen
    ** SCAN.PROCESS **
        strlen.execute() := begin
            input (S, Max);
            start <- S;
            z <- 0;
            repeat
                exit_when (Max = 0);
                z <- (Mb[ S ] = 0);
                exit_when (z);
                S <- S + 1;
                Max <- Max - 1;
            end_repeat;
            if z then
                output (S - start);
            else
                output (0);
            end_if;
        end
end
"""


def main() -> None:
    operator = parse_description(STRLEN_TEXT)
    instruction = parse_description(SKIPNZ_TEXT)
    print("=== the new instruction ===\n")
    print(format_description(instruction))

    info = AnalysisInfo(
        machine="Z900",
        instruction="skipnz",
        language="C runtime",
        operation="string length",
        operator="string.length",
    )
    session = AnalysisSession(info, operator, instruction)

    # Augment the instruction: save the start address in a prologue,
    # replace the raw register outputs with the operator's result —
    # exactly the scasb/index recipe from the paper's §4.1.
    ins = session.instruction
    ins.apply("allocate_temp", temp="start", bits=24)
    ins.apply_stmts("add_prologue", "start <- p;", position=1)
    ins.apply_stmts(
        "replace_epilogue",
        "if hit then output (p - start); else output (0); end_if;",
    )

    binding = session.finish()
    print("=== the binding ===\n")
    print(binding.describe())
    print(f"\ntotal transformation steps: {session.steps}")

    print("\n=== the augmented instruction ===\n")
    print(format_description(binding.augmented_instruction))

    scenario = ScenarioSpec(
        operands={"S": OperandSpec("address"), "Max": OperandSpec("length")}
    )
    report = verify_binding(binding, scenario, config=RunConfig(trials=300))
    print(f"verified: {report}")


if __name__ == "__main__":
    main()
