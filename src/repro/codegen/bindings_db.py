"""Binding database: the analyses' output, packaged for the compiler.

Runs the recorded analysis scripts (without the differential-testing
pass — that is the test suite's job) and collects the resulting
bindings per target machine.  This is the hand-off the paper describes:
"the results of the analysis are passed to a retargetable code
generator as part of the instruction repertoire of the machine" (§3).

The VAX library optionally includes the §7 extension binding
(movc3 implementing ``string.move`` under the no-overlap language
fact); without it, a VAX compiler must decompose plain string moves —
exactly the stock-EXTRA situation.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from ..analysis import Binding, BindingLibrary, RunConfig
from ..analyses import AnalysisSpec, codegen_specs
from ..lint import LintGateError, lint_binding


def _binding_from(spec: AnalysisSpec) -> Binding:
    outcome = spec.module.run(RunConfig(verify=False))
    if not outcome.succeeded:
        raise RuntimeError(
            f"analysis {spec.name} failed: {outcome.failure}"
        )
    field_map = dict(spec.field_map) if spec.field_map is not None else None
    trace = outcome.trace
    binding = dataclasses.replace(
        outcome.binding,
        field_map=field_map,
        trace_digest=trace.digest() if trace is not None else None,
    )
    # No binding whose constraints contradict its own descriptions may
    # enter a compiler's instruction repertoire.
    diagnostics = lint_binding(binding)
    if diagnostics:
        raise LintGateError(tuple(diagnostics))
    return binding


@lru_cache(maxsize=None)
def library_for(machine: str, with_extensions: bool = False) -> BindingLibrary:
    """All bindings for ``machine`` (cached), per the analysis registry."""
    specs = codegen_specs(machine, extensions=with_extensions)
    if not specs:
        raise KeyError(f"no bindings known for machine {machine!r}")
    paper_machine = _binding_from(specs[0]).machine
    library = BindingLibrary(machine=paper_machine)
    for spec in specs:
        library.add(_binding_from(spec))
    return library
