"""Beyond Table 2 — the extension analyses this reproduction adds.

Four analyses the paper motivates but does not tabulate (the B4800 list
search of §1, footnote 5's B4800 move encoding, 8086 stosb as a block
clear, IBM 370 clc) plus the §7 language-fact repair of movc3/sassign.
Printed as a Table-2-style summary.
"""

import pytest

from repro.analyses import EXTENSIONS
from repro.analysis import RunConfig, format_table, table2_row

from conftest import banner


def test_extensions_table(benchmark):
    def run_all():
        return [module.run(RunConfig(trials=40)) for module in EXTENSIONS]

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [table2_row(outcome) for outcome in outcomes]
    print(banner("Extensions: analyses beyond Table 2"))
    print(
        format_table(
            rows, ("Machine", "Instruction", "Language", "Operation", "Steps")
        )
    )
    for outcome in outcomes:
        assert outcome.succeeded, outcome.failure
        assert outcome.verification is not None
