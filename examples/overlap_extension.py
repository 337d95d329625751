#!/usr/bin/env python3
"""The §4.3 failure and the §7 repair, side by side.

Stock EXTRA cannot prove VAX-11 ``movc3`` equivalent to Pascal string
assignment: movc3's overlap-guarding direction branch can only be
eliminated under the multi-operand constraint

    (Src.Base + Src.Length <= Dst.Base) or
    (Dst.Base + Dst.Length <= Src.Base)

and "the current version of EXTRA has no ability to deal with
complicated constraints that involve more than one operand."

The paper's proposed fix (§7): teach the analyzer *source language
characteristics* — Pascal strings can never overlap, a fact about the
language rather than any single program.  The two analysis modules
hold the same inputs and the same script; the extension adds only
``LANGUAGE_FACTS = (NO_OVERLAP,)``, and ``run_analysis`` plays both.  This
example runs the analysis both ways and then shows the consequence for
generated code: without the fact, a VAX compiler decomposes every
plain string move; with it, movc3 is generated.

    python examples/overlap_extension.py
"""

from repro.analyses import movc3_sassign_extension, movc3_sassign_failure
from repro.analysis import RunConfig
from repro.codegen import ir, target_for


def main() -> None:
    print("=== stock EXTRA (the paper's §4.3) ===\n")
    outcome = movc3_sassign_failure.run()
    assert not outcome.succeeded
    print("analysis FAILED, as published:")
    print(f"  {outcome.failure}\n")

    print("=== with the no-overlap language fact (§7) ===\n")
    repaired = movc3_sassign_extension.run(RunConfig(trials=200))
    assert repaired.succeeded, repaired.failure
    print(f"analysis SUCCEEDED in {repaired.steps} steps")
    print(f"verified: {repaired.verification}\n")
    for constraint in repaired.binding.constraints:
        print(f"  constraint: {constraint.describe()}")

    print("\n=== consequence for generated VAX code ===\n")
    program = (
        ir.StringMove(
            dst=ir.Param("d", 0, 30000),
            src=ir.Param("s", 0, 30000),
            length=ir.Param("n", 0, 30000),
        ),
    )
    memory = {100 + i: b for i, b in enumerate(b"no overlap here")}
    params = {"s": 100, "d": 20000, "n": 15}

    stock = target_for("vax11", with_extensions=False)
    stock_asm = stock.compile(program)
    stock_run = stock.simulate(stock_asm, params, memory)
    extended = target_for("vax11", with_extensions=True)
    extended_asm = extended.compile(program)
    extended_run = extended.simulate(extended_asm, params, memory)

    print(f"stock bindings:    {len(stock_asm)} instructions, "
          f"{stock_run.cycles} cycles (decomposed byte loop)")
    print(f"with extension:    {len(extended_asm)} instructions, "
          f"{extended_run.cycles} cycles (movc3)")
    print(f"speedup:           {stock_run.cycles / extended_run.cycles:.2f}x")
    assert any(i.mnemonic == "movc3" for i in extended_asm.instructions())
    assert not any(i.mnemonic == "movc3" for i in stock_asm.instructions())


if __name__ == "__main__":
    main()
