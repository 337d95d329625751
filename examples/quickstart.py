#!/usr/bin/env python3
"""Quickstart: the paper's §4.1 analysis, end to end.

Runs the recorded scasb/Rigel-index analysis (simplify the instruction,
augment it, transform the operator into the common form), prints the
binding with its constraints, differentially verifies it, and finally
uses the binding to *generate real 8086 code* for a string search —
which is then executed on the cycle-costed 8086 simulator.

    python examples/quickstart.py
"""

from repro.analyses import scasb_rigel
from repro.analysis import RunConfig
from repro.codegen import ir, target_for
from repro.isdl import format_description


def main() -> None:
    print("=== 1. run the analysis (73 steps in the 1982 system) ===\n")
    outcome = scasb_rigel.run(RunConfig(trials=200))
    assert outcome.succeeded, outcome.failure
    print(outcome.binding.describe())
    print(f"\ndifferential check: {outcome.verification}")

    print("\n=== 2. the augmented instruction (paper figure 5) ===\n")
    print(format_description(outcome.binding.augmented_instruction))

    print("=== 3. generate 8086 code from the binding ===\n")
    target = target_for("i8086")
    program = (
        ir.StringIndex(
            result="idx",
            base=ir.Param("s", 0, 60000),
            length=ir.Param("n", 0, 60000),
            char=ir.Param("c", 0, 255),
        ),
    )
    asm = target.compile(program)
    print(asm.listing())

    print("=== 4. run it on the simulator ===\n")
    text = b"analyzing exotic instructions"
    memory = {1000 + i: byte for i, byte in enumerate(text)}
    result = target.simulate(
        asm, {"s": 1000, "n": len(text), "c": ord("x")}, memory
    )
    print(f"searching {text!r} for 'x'")
    print(f"index (1-based): {result.results['idx']}")
    print(f"cycles: {result.cycles}")
    assert result.results["idx"] == text.index(b"x") + 1


if __name__ == "__main__":
    main()
