"""§4.3 and §5 — the documented analysis failures, plus the §7 repair.

Regenerates the two failure narratives: movc3 vs Pascal sassign dies on
the multi-operand no-overlap constraint, and the DG Eclipse's
sign-encoded direction defeats the transformation library.  The same
bench then runs the §7 language-fact extension, which completes the
movc3/sassign analysis and verifies it differentially.
"""

import pytest

from repro.analyses import (
    eclipse_failure,
    movc3_sassign_extension,
    movc3_sassign_failure,
)
from repro.analysis import RunConfig

from conftest import banner


def test_movc3_sassign_failure(benchmark):
    outcome = benchmark(movc3_sassign_failure.run)
    print(banner("§4.3: VAX-11 movc3 vs Pascal sassign (stock EXTRA)"))
    print(f"result: FAILED (as the paper reports)")
    print(f"reason: {outcome.failure}")
    assert not outcome.succeeded
    assert "UnsupportedConstraintError" in outcome.failure


def test_eclipse_failure(benchmark):
    outcome = benchmark(eclipse_failure.run)
    print(banner("§5: DG Eclipse cmv vs Pascal string move"))
    print(f"result: FAILED (as the paper reports)")
    print(f"reason: {outcome.failure}")
    assert not outcome.succeeded


def test_section7_extension(benchmark):
    outcome = benchmark(movc3_sassign_extension.run, RunConfig(trials=40))
    print(banner("§7 extension: movc3/sassign under the no-overlap fact"))
    assert outcome.succeeded, outcome.failure
    print(f"result: SUCCEEDED in {outcome.steps} steps")
    print(f"verified: {outcome.verification}")
    for constraint in outcome.binding.constraints:
        print(f"constraint: {constraint.describe()}")
